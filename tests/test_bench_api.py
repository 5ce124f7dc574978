"""The package API that `bench/` uses, exercised through `bench/` itself.

`bench/` is edited only by benchmark changes, so a change to the package
that breaks it must fail here first.
"""

import inspect
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import discsteer
from discsteer import moment

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    # sweep.py sets the BLAS thread variables and prepends src/ at import
    environ, path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        import sweep
        import tracing
        import workloads
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
    return workloads, tracing, sweep


def test_solve_moment_keeps_cond_limit():
    # bench/sweep.py reads the default through the signature
    assert "cond_limit" in inspect.signature(moment.solve_moment).parameters


def test_workloads_run_under_the_tracer(bench_modules):
    workloads, tracing, _ = bench_modules
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


def test_sweep_runs_on_the_package(bench_modules):
    _, _, sweep = bench_modules
    # the smallest horizon that keeps the Gram matrix under cond_limit
    gram = sweep.gram_sizes(discsteer.compute_zeros(0, 40))
    assert sorted(gram) == [10, 20, 40]
    for k, row in gram.items():
        assert 0.2 < row["min_T"] < 0.21, (k, row)
    # galerkin_sizes passes steps by position
    table = discsteer.compute_zeros(0, 5)
    with pytest.warns(UserWarning, match="resolution"):
        result = discsteer.dynamics.simulate_bilinear(
            discsteer.RadialState(np.eye(5)[0]), discsteer.ControlSignal.zero(1.0),
            discsteer.GalerkinSystem.build(5, table), 8)
    assert result.times.size == 9
