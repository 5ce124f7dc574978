"""The package API that `bench/` uses, exercised through `bench/` itself.

`bench/` is edited only by benchmark changes, so a change to the package
that breaks it must fail here first.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import discsteer
from discsteer import moment

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        import workloads
        yield workloads, tracing
    finally:
        sys.path.remove(str(BENCH))


def test_solve_moment_keeps_cond_limit():
    # bench/sweep.py reads the default through the signature
    assert "cond_limit" in inspect.signature(moment.solve_moment).parameters


def test_workloads_run_under_the_tracer(bench_modules):
    workloads, tracing = bench_modules
    originals = {(home, attr): getattr(getattr(discsteer, home), attr)
                 for home, attr, _ in tracing.FUNCTIONS}
    tracer = tracing.Tracer(discsteer)
    tracer.install()
    try:
        contexts = {name: w().setup() for name, w in workloads.WORKLOADS.items()}
        synth = workloads.WORKLOADS["synth"]()
        ctx = contexts["synth"]
        inp = synth.make_input(ctx, np.random.default_rng(7), 0)
        _, ok = synth.check(ctx, inp, synth.run(ctx, inp))
        # the bilinear hook reads the result's trajectory members
        sys5 = discsteer.GalerkinSystem.build(5, ctx.table)
        with pytest.warns(UserWarning, match="resolution"):
            discsteer.dynamics.simulate_bilinear(
                discsteer.RadialState(np.eye(5)[0]),
                discsteer.ControlSignal.zero(1.0), sys5, steps=8)
    finally:
        tracer.uninstall()
    assert ok
    names = {span[0] for span in tracer.spans}
    assert {"moment.solve_moment", "control.synthesize_linearized",
            "dynamics.simulate_bilinear"} <= names
    for (home, attr), fn in originals.items():
        assert getattr(getattr(discsteer, home), attr) is fn
