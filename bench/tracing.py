"""Span tracing of the package's public functions, installed from outside.

`Tracer.install` replaces each traced function wherever a package module
binds it (so calls between modules are seen too) and `uninstall` puts the
originals back; nothing under `src/` changes. A span is
``(name, start, end, parent, op)``; counts are recorded at the same call
boundaries. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

import numpy as np

# (module, attribute, hook) of every traced function; the span is named
# "<module>.<attribute>", and `hook` names a Tracer method that records counts
# from the call's arguments and result.
FUNCTIONS = [
    ("bessel", "compute_zeros", "_on_zeros"),
    ("spectral", "coupling_matrix", "_on_coupling"),
    ("moment", "build_frequencies", "_on_frequencies"),
    ("moment", "build_rhs", None),
    ("moment", "solve_moment", "_on_moment"),
    ("moment", "moment_residuals", None),
    ("dynamics", "simulate_bilinear", "_on_bilinear"),
    ("dynamics", "simulate_linearized", None),
    ("control", "synthesize_linearized", None),
    ("control", "integrate_control", None),
    ("control", "endpoint_map", None),
    ("control", "steer_local", "_on_steer"),
    ("control", "radius_from_control", "_on_radius"),
    ("control", "control_from_radius", None),
]
LAYERS = ("bessel", "spectral", "dynamics", "moment", "control")


class Tracer:
    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.spans = []      # [name, start, end, parent index or -1, op]
        self.counts = []     # [name, value, op]
        self.op = None
        self._stack = []
        self._eval_depth = 0
        self._patches = []

    # -- recording ---------------------------------------------------------
    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, name, value, op=None):
        self.counts.append([name, float(value), self.op if op is None else op])

    def _span(self, name, fn, hook=None):
        hook_fn = getattr(self, hook) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            self.count(name + ".calls", 1)
            if hook_fn is not None:
                hook_fn(args, kwargs, result)
            return result
        return traced

    def _eval(self, fn):
        """Span only the outermost control evaluation; count its points."""
        @functools.wraps(fn)
        def traced(signal, t):
            if self._eval_depth:
                return fn(signal, t)
            self._eval_depth += 1
            self._enter("dynamics.ControlSignal.eval")
            try:
                return fn(signal, t)
            finally:
                self._exit()
                self._eval_depth -= 1
                self.count("dynamics.ControlSignal.eval.points", np.size(t))
        return traced

    # -- count hooks -------------------------------------------------------
    def _on_zeros(self, args, kwargs, table):
        from scipy import special
        self.count("bessel.zeros", len(table.zeros))
        self.count("bessel.zero_residual", max(
            abs(special.jv(nu, z)) for (nu, _), z in table.zeros.items()))

    def _on_coupling(self, args, kwargs, m):
        self.count("spectral.coupling_matrix.entries", m.size)

    def _on_frequencies(self, args, kwargs, freqs):
        self.count("moment.frequencies", freqs.K)

    def _on_moment(self, args, kwargs, sol):
        self.count("moment.gram_cond", sol.diagnostics["condition_number"])
        self.count("moment.max_residual", sol.diagnostics["max_residual"])

    def _on_bilinear(self, args, kwargs, result):
        steps = result.times.size - 1
        n = result.states.shape[1]
        self.count("dynamics.simulate_bilinear.steps", steps)
        # per Crank-Nicolson step: complex LU (8n^3/3 real flops), two
        # triangular solves and one matvec (8n^2 each), assembly (6n^2)
        self.count("dynamics.simulate_bilinear.flops_computed",
                   steps * (8 * n ** 3 / 3 + 30 * n ** 2))
        forcing = kwargs.get("forcing", args[4] if len(args) > 4 else None)
        if forcing is None:
            self.count("dynamics.simulate_bilinear.norm_drift", result.norm_drift())

    def _on_steer(self, args, kwargs, report):
        self.count("control.newton_iters", report.iterations)

    def _on_radius(self, args, kwargs, traj):
        self.count("control.radius.rk4_steps", traj.taus.size - 1)

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for home, attr, hook in FUNCTIONS:
            original = getattr(self.modules[home], attr)
            traced = self._span(f"{home}.{attr}", original, hook)
            for module in self.modules.values():
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, traced)
        dyn = self.modules["dynamics"]
        signal = dyn.ControlSignal
        self._patch(signal, "integral",
                    self._span("dynamics.ControlSignal.integral", signal.integral))
        self._patch(signal, "__call__", self._eval(signal.__call__))
        self._patch(signal, "derivative", self._eval(signal.derivative))
        build = dyn.GalerkinSystem.__dict__["build"].__func__
        self._patch(dyn.GalerkinSystem, "build", classmethod(
            self._span("dynamics.GalerkinSystem.build", build)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------
    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        out = np.array([s[2] - s[1] for s in self.spans])
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts}, fh)


# Per-layer metrics of a --trace 1 run, name -> unit. "<span>.s" is self time
# and "<span>.total_s" inclusive time per traced op (per set-up for the
# set-up functions); counts are per op.
OP_SPANS = [
    "dynamics.ControlSignal.integral", "dynamics.ControlSignal.eval",
    "dynamics.simulate_linearized", "dynamics.simulate_bilinear",
    "moment.build_frequencies", "moment.build_rhs", "moment.solve_moment",
    "moment.moment_residuals", "control.synthesize_linearized",
    "control.integrate_control", "control.endpoint_map", "control.steer_local",
    "control.radius_from_control", "control.control_from_radius",
]
SETUP_SPANS = ["bessel.compute_zeros", "dynamics.GalerkinSystem.build",
               "spectral.coupling_matrix"]
OP_COUNTS = {
    "dynamics.ControlSignal.integral.calls": "count",
    "dynamics.ControlSignal.eval.points": "count",
    "dynamics.simulate_bilinear.calls": "count",
    "dynamics.simulate_bilinear.steps": "count",
    "dynamics.simulate_bilinear.flops_computed": "flop",
    "dynamics.resolution_warnings": "count",
    "control.synthesize_linearized.calls": "count",
    "control.endpoint_map.calls": "count",
    "control.newton_iters": "count",
    "control.radius.rk4_steps": "count",
}
OP_MAXIMA = {"dynamics.simulate_bilinear.norm_drift": "1",
             "moment.frequencies": "count", "moment.gram_cond": "1",
             "moment.max_residual": "1"}
SETUP_COUNTS = {"bessel.zeros": "count",
                "spectral.coupling_matrix.entries": "count"}
PER_LAYER = {
    **{f"{n}.s": "s" for n in OP_SPANS + SETUP_SPANS},
    **{f"{n}.total_s": "s" for n in OP_SPANS},
    **OP_COUNTS,
    **{f"{n}.max": u for n, u in OP_MAXIMA.items()},
    "bessel.zero_residual.max": "1",
    **SETUP_COUNTS,
    "dynamics.simulate_bilinear.step_us": "us",
    **{f"layer.{n}.self_s": "s" for n in LAYERS + ("untraced",)},
    "op.traced_s": "s", "op.bare_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count", "reference.own_err.max": "1",
}


def per_layer(tracer, records):
    """Reduce the spans and counts of a traced run to the PER_LAYER metrics."""
    traced = {r["op"] for r in records if r["traced"]}
    setups = {s[4] for s in tracer.spans if isinstance(s[4], str)}
    n_ops, n_setups = len(traced), max(1, len(setups))
    op_s, total_s, setup_s, layer = (defaultdict(float) for _ in range(4))
    top_level = 0.0
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span[4] in traced:
            op_s[span[0]] += own
            total_s[span[0]] += span[2] - span[1]
            layer[span[0].split(".")[0]] += own
            top_level += (span[2] - span[1]) if span[3] < 0 else 0.0
        elif span[4] in setups:
            setup_s[span[0]] += own
    sums, maxima, setup_sums = (defaultdict(float) for _ in range(3))
    for name, value, op in tracer.counts:
        if op in traced:
            sums[name] += value
            maxima[name] = max(maxima[name], value)
        elif op in setups:
            setup_sums[name] += value
            maxima[name] = max(maxima[name], value)
    traced_s = [r["seconds"] for r in records if r["traced"]]
    bare_s = [r["seconds"] for r in records if not r["traced"]]
    steps = sums["dynamics.simulate_bilinear.steps"]
    values = {
        **{f"{n}.s": op_s[n] / n_ops for n in OP_SPANS},
        **{f"{n}.s": setup_s[n] / n_setups for n in SETUP_SPANS},
        **{f"{n}.total_s": total_s[n] / n_ops for n in OP_SPANS},
        **{n: sums[n] / n_ops for n in OP_COUNTS},
        **{f"{n}.max": maxima[n] for n in OP_MAXIMA},
        "bessel.zero_residual.max": maxima["bessel.zero_residual"],
        **{n: setup_sums[n] / n_setups for n in SETUP_COUNTS},
        "dynamics.simulate_bilinear.step_us":
            1e6 * op_s["dynamics.simulate_bilinear"] / steps if steps else 0.0,
        **{f"layer.{n}.self_s": layer[n] / n_ops for n in LAYERS},
        "layer.untraced.self_s": (sum(traced_s) - top_level) / n_ops,
        "op.traced_s": statistics.median(traced_s),
        "op.bare_s": statistics.median(bare_s),
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(bare_s),
        "trace.spans": sum(s[4] in traced for s in tracer.spans) / n_ops,
        "reference.own_err.max": max((r["reference"].get("ref_own_err", 0.0)
                                      for r in records if r.get("reference")),
                                     default=0.0),
    }
    return {n: {"value": float(values[n]), "unit": u} for n, u in PER_LAYER.items()}
