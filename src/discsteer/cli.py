"""Command-line surface: zeros, verify, synthesize, simulate, steer, radius.

Each command returns its exit code and the names of the files it wrote;
`main` then writes the manifest. Exit status: 0 success, 1 verification
failure, 2 usage/config error, 3 numerical failure (conditioning or divergence).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys

import numpy as np
import scipy

from . import __version__, bessel, control, dynamics, moment, spectral
from .errors import (ConditioningError, ConvergenceError, DiscSteerError,
                     DomainError)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise DomainError(f"config file {path} must hold a JSON object")
    return config


def _effective(defaults: dict, config: dict, flags: dict) -> dict:
    """Flags override config-file values override defaults.

    A value must have its default's type; an int may stand for a float, and
    a string (a path) for None.
    """
    out = dict(defaults)
    out.update({k: v for k, v in config.items() if k in defaults})
    out.update({k: v for k, v in flags.items() if v is not None and k in defaults})
    for key, value in out.items():
        kind = type(defaults[key])
        allowed = {float: (int, float), type(None): (str, type(None))}.get(kind, kind)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise DomainError(f"{key} = {value!r}: expected a value like "
                              f"{defaults[key]!r}")
    return out


def _require(cfg: dict, *keys) -> None:
    for key in keys:
        if cfg[key] is None:
            raise DomainError(f"--{key} is required")


def _write_json(out, name: str, obj, **kw) -> str:
    with open(os.path.join(out, name), "w") as fh:
        json.dump(obj, fh, indent=1, **kw)
    return name


def _write_csv(out, name: str, header, rows) -> str:
    with open(os.path.join(out, name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return name


def _columns(xs, ys):
    return ([f"{x:.16e}", f"{y:.16e}"] for x, y in zip(xs, ys))


def _write_manifest(out, command: str, cfg: dict, outputs: list) -> None:
    """Record the settings, the hashes of the input files (the settings that
    default to None), the outputs and the library versions."""
    inputs = [name for name, default in COMMANDS[command][2].items()
              if default is None and cfg[name] and os.path.exists(cfg[name])]
    _write_json(out, "manifest.json", {
        "command": command, "config": cfg, "outputs": outputs,
        "input_hashes": {name: _sha256(cfg[name]) for name in inputs},
        "versions": {"discsteer": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__}}, sort_keys=True)


def _read_control_csv(path) -> dynamics.ControlSignal:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) < 2 or any(len(row) != 2 for row in rows):
        raise DomainError(f"control CSV {path} needs a header and at least "
                          "two rows of two numbers (t, u)")
    data = np.array([[float(a), float(b)] for a, b in rows])
    if not np.all(np.isfinite(data)):
        raise DomainError(f"control CSV {path} holds a non-finite value")
    t, v = data[:, 0], data[:, 1]
    if abs(t[0]) > 1e-12 or np.any(np.abs(np.diff(t) - (t[-1] / (t.size - 1))) > 1e-9):
        raise DomainError("control CSV must use a uniform grid starting at 0")
    return dynamics.ControlSignal(samples=v, T=float(t[-1]))


def cmd_zeros(cfg: dict, out: str) -> tuple[int, list]:
    table = bessel.compute_zeros(cfg["nu"], cfg["k"])
    path = os.path.join(out, "zeros.json")
    table.to_json(path)
    print(f"wrote {path} ({len(table.zeros)} zeros)")
    return EXIT_OK, [os.path.basename(path)]


def _check(value, bound, ok) -> dict:
    return {"value": float(value), "bound": bound, "ok": bool(ok)}


def _verify_checks(table: bessel.ZeroTable) -> dict:
    """Each check's measured value, bound and verdict, the details behind
    them, and `all_ok`, the conjunction of every check."""
    if table.k_max < 4:
        raise DomainError(f"verify needs a zero table with k_max >= 4, because "
                          f"the coupling bounds start at k=4 (k_max={table.k_max})")
    nodes, weights = bessel.gauss_legendre_rule(256)
    checks = {}

    # zero certification
    residual = max(abs(bessel.bessel_j(nu, z)) for (nu, _), z in table.zeros.items())
    checks["zero_residual"] = _check(residual, bessel.ZERO_RESIDUAL_MAX,
                                     residual <= bessel.ZERO_RESIDUAL_MAX)

    # orthogonality of the normalised modes
    kk = min(table.k_max, 30)
    vals = np.array([spectral.mode(k, nodes, table) for k in range(1, kk + 1)])
    off = np.abs((vals * nodes * weights) @ vals.T - np.eye(kk))
    worst = np.unravel_index(np.argmax(off), off.shape)
    checks["orthogonality"] = _check(off.max(), 1e-9, off.max() <= 1e-9)

    # the program's closed-form coupling matrix against quadrature, on the
    # first 20 of those modes: the leading block of one 40-mode matrix
    coupling = spectral.coupling_matrix(min(table.k_max, 40), table)
    kk = min(table.k_max, 20)
    quad = (vals[:kk] * nodes ** 3 * weights) @ vals[:kk].T
    residual = np.max(np.abs(coupling[:kk, :kk] - quad))
    checks["coupling_identity"] = _check(residual, 1e-9, residual <= 1e-9)

    # Gram conditioning at the guaranteed horizon
    freqs = moment.build_frequencies(table, min(table.k_max, 12)).truncate(30)
    horizon = 2 * np.pi / moment.gamma_tilde(table)
    eigs = np.linalg.eigvalsh(moment.gram_matrix(freqs, horizon))
    cond = eigs[-1] / eigs[0] if eigs[0] > 0 else np.inf
    checks["gram_condition"] = _check(cond, 1e8, cond < 1e8)

    # coupling magnitude bounds j_k^3 |coupling(p, k)|, p = 1..3, k = 4..kk
    kk = min(table.k_max, 40)
    scaled = table.row(0)[3:kk] ** 3 * np.abs(coupling[:3, 3:])
    checks["coupling_bounds"] = _check(scaled.min(), 0.0, scaled.min() > 0)

    # non-resonance
    gap = moment.build_frequencies(table, min(table.k_max, 200)).min_gap()
    checks["nonresonance"] = _check(gap, 1e-6, gap > 1e-6)

    return {"checks": checks,
            "coupling_bounds": {f"p{p}": {"min": float(v.min()), "max": float(v.max())}
                                for p, v in enumerate(scaled, start=1)},
            "gram_min_eig": float(eigs[0]), "gram_max_eig": float(eigs[-1]),
            "orthogonality_worst_pair": [int(worst[0]) + 1, int(worst[1]) + 1],
            "all_ok": all(c["ok"] for c in checks.values())}


def cmd_verify(cfg: dict, out: str) -> tuple[int, list]:
    report = _verify_checks(bessel.ZeroTable.from_json(cfg["table"]) if cfg["table"]
                            else bessel.compute_zeros(0, cfg["k"]))
    name = _write_json(out, "verify_report.json", report, sort_keys=True)
    for key, c in report["checks"].items():
        print(f"{'PASS' if c['ok'] else 'FAIL'} {key} {c['value']:.3e} "
              f"(bound {c['bound']:.1e})")
    return (EXIT_OK if report["all_ok"] else EXIT_VERIFY), [name]


def _setup_system(N: int, K: int):
    """Zero table for N modes, K moment modes and the reference packet, and
    the N-mode Galerkin system."""
    table = bessel.compute_zeros(0, max(N, K, 3))
    return table, dynamics.GalerkinSystem.build(N, table)


def cmd_synthesize(cfg: dict, out: str) -> tuple[int, list]:
    _require(cfg, "psif")
    table, sys_ = _setup_system(cfg["N"], cfg["K"])
    params = spectral.TargetParams(cfg["theta2"], cfg["theta3"])
    psif = spectral.RadialState.from_json(cfg["psif"])
    psi0 = spectral.RadialState.from_json(cfg["psi0"]) if cfg["psi0"] \
        else spectral.RadialState(np.zeros(cfg["N"], dtype=complex))
    problem = control.SteeringProblem(params=params, T=cfg["T"],
                                      psi0=psi0, psif=psif)
    v = control.synthesize_linearized(problem, cfg["K"], sys=sys_, table=table)
    endpoint = dynamics.simulate_linearized(v, params, sys_)
    target = problem.linear_target(sys_)
    err = float(np.linalg.norm(endpoint.coeffs - target.coeffs))
    outputs = [
        _write_csv(out, "control_v.csv", ["t", "v"], _columns(v.grid, v.samples)),
        _write_json(out, "synthesize_report.json",
                    {"endpoint_error": err, "target_norm": target.l2_norm(),
                     "control_max": v.max_abs()})]
    print(f"endpoint error {err:.3e} (target norm {target.l2_norm():.3e})")
    return EXIT_OK, outputs


def cmd_simulate(cfg: dict, out: str) -> tuple[int, list]:
    _require(cfg, "state0")
    _, sys_ = _setup_system(cfg["N"], 0)
    state0 = spectral.RadialState.from_json(cfg["state0"])
    w = control.potential(_read_control_csv(cfg["control"])) if cfg["control"] \
        else dynamics.ControlSignal.zero(1.0)
    result = dynamics.simulate_bilinear(state0, w, sys_, steps=cfg["steps"])
    stride = max(1, result.times.size // 1024)
    rows = ([f"{result.times[i]:.12e}", k + 1, f"{c.real:.12e}", f"{c.imag:.12e}"]
            for i in range(0, result.times.size, stride)
            for k, c in enumerate(result.states[i, :sys_.N]))
    run = {"N": sys_.N, "steps": cfg["steps"], "T": w.T,
           "norm_drift": result.norm_drift()}
    outputs = [_write_csv(out, "trajectory.csv", ["t", "k", "re", "im"], rows),
               _write_json(out, "run.json", run)]
    print(f"norm drift {run['norm_drift']:.3e}")
    return EXIT_OK, outputs


def cmd_steer(cfg: dict, out: str) -> tuple[int, list]:
    _require(cfg, "psi0", "psif")
    table, sys_ = _setup_system(cfg["N"], cfg["K"])
    problem = control.SteeringProblem(
        params=spectral.TargetParams(cfg["theta2"], cfg["theta3"]), T=cfg["T"],
        psi0=spectral.RadialState.from_json(cfg["psi0"]),
        psif=spectral.RadialState.from_json(cfg["psif"]))
    report = control.steer_local(problem, iterations=cfg["iterations"],
                                 K=cfg["K"], sys=sys_, table=table,
                                 steps=cfg["steps"])
    u = report.control
    traj = control.radius_from_control(u)
    steer_report = {"converged": report.converged,
                    "iterations": report.iterations,
                    "residual_history": [float(r) for r in report.residuals],
                    "control_samples": [float(s) for s in u.samples],
                    "horizon": u.T, "T_star": traj.T_star}
    outputs = [
        _write_csv(out, "control_u.csv", ["t", "u"], _columns(u.grid, u.samples)),
        _write_csv(out, "radius.csv", ["tau", "R"], _columns(traj.taus, traj.radii)),
        _write_json(out, "steer_report.json", steer_report)]
    print(f"residuals: {['%.3e' % r for r in report.residuals]}")
    return (EXIT_OK if report.converged else EXIT_NUMERICAL), outputs


def cmd_radius(cfg: dict, out: str) -> tuple[int, list]:
    _require(cfg, "control")
    traj = control.radius_from_control(_read_control_csv(cfg["control"]))
    name = _write_csv(out, "radius.csv", ["tau", "R"],
                      _columns(traj.taus, traj.radii))
    print(f"T* = {traj.T_star:.6f}, R in [{traj.radii.min():.6f}, "
          f"{traj.radii.max():.6f}]")
    return EXIT_OK, [name]


# Each subcommand's settings, declared once as name -> default. Every
# setting is both a flag and a config key, and a value must have its
# default's type. The settings that default to None are input file paths.
COMMANDS = {
    "zeros": (cmd_zeros, "compute and certify a Bessel zero table",
              {"nu": 0, "k": 64}),
    "verify": (cmd_verify, "run the numerical verification sweep",
               {"k": 40, "table": None}),
    "synthesize": (cmd_synthesize, "synthesize a linearized control",
                   {"theta2": 0.25, "theta3": 0.25, "T": 1.0, "K": 20,
                    "N": 40, "psi0": None, "psif": None}),
    "simulate": (cmd_simulate, "simulate the bilinear system",
                 {"N": 40, "steps": 2 ** 14, "control": None,
                  "state0": None}),
    "steer": (cmd_steer, "run the local nonlinear steering loop",
              {"theta2": 0.25, "theta3": 0.25, "T": 1.0, "K": 20, "N": 40,
               "iterations": 4, "steps": 2 ** 14, "psi0": None,
               "psif": None}),
    "radius": (cmd_radius, "reconstruct the radius trajectory",
               {"control": None}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discsteer",
        description="Deformation control synthesis for a quantum particle on a disc")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_, defaults) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default: cwd)")
        for name, default in defaults.items():
            if default is None:
                p.add_argument(f"--{name}", metavar="PATH", help="input file")
            else:
                p.add_argument(f"--{name}", type=type(default),
                               help=f"default: {default}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        func, _, defaults = COMMANDS[args.command]
        cfg = _effective(defaults, _load_config(args.config), vars(args))
        out = args.out or "."
        os.makedirs(out, exist_ok=True)
        code, outputs = func(cfg, out)
        _write_manifest(out, args.command, cfg, outputs)
        return code
    except (ConditioningError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DiscSteerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
