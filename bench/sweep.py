"""Size sweep kept out of the timed benchmark.

    python3 bench/sweep.py

For N in {40, 80, 160}: the time of one `GalerkinSystem.build` and of one
Crank-Nicolson step of `simulate_bilinear` (a 1024-step run divided by 1024;
its per-call set-up is under 1% of that). For K in {10, 20, 40}: the condition
number of the moment Gram matrix at T = 1 and the smallest T that keeps it
under `solve_moment`'s default `cond_limit`. Prints JSON and writes it to
bench/out/sweep.json.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import inspect
import json
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

import numpy as np  # noqa: E402

from discsteer import bessel, dynamics, moment  # noqa: E402
from discsteer.spectral import RadialState  # noqa: E402

COND_LIMIT = inspect.signature(moment.solve_moment).parameters["cond_limit"].default


def _timed(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def galerkin_sizes(table):
    out = {}
    rng = np.random.default_rng(0)
    w = dynamics.ControlSignal.from_function(
        lambda t: 0.3 * np.sin(2 * np.pi * np.asarray(t)), 1.0)
    for n in (40, 80, 160):
        build = _timed(lambda: dynamics.GalerkinSystem.build(n, table))
        sys_ = dynamics.GalerkinSystem.build(n, table)
        state = RadialState(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # every size here is under-resolved
            run = _timed(lambda: dynamics.simulate_bilinear(state, w, sys_, 1024))
        out[n] = {"build_s": build, "cn_step_us": 1e6 * run / 1024,
                  "resolution_warnings": len(caught)}
    return out


def _cond(freqs, T):
    eigs = np.linalg.eigvalsh(moment.gram_matrix(freqs, T, with_time_element=True))
    return float(eigs[-1] / eigs[0]) if eigs[0] > 0 else float("inf")


def gram_sizes(table):
    out = {}
    for k in (10, 20, 40):
        freqs = moment.build_frequencies(table, k)
        lo, hi = 1e-3, 1.0  # cond(hi) <= limit < cond(lo); cond falls with T
        for _ in range(60):
            mid = (lo * hi) ** 0.5
            lo, hi = (lo, mid) if _cond(freqs, mid) <= COND_LIMIT else (mid, hi)
        out[k] = {"frequencies": freqs.K, "cond_T1": _cond(freqs, 1.0),
                  "min_T": hi, "cond_min_T": _cond(freqs, hi)}
    return out


def main():
    table = bessel.compute_zeros(0, 160)
    result = {"cond_limit": COND_LIMIT,
              "two_pi_over_gamma_tilde": 2 * np.pi / moment.gamma_tilde(table),
              "galerkin": galerkin_sizes(table), "gram": gram_sizes(table)}
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "sweep.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
