"""Benchmark of the discsteer pipeline with accuracy attached to every timing.

Usage, from the repository root:

    python3 bench/run.py --workload synth|steer|propagate --seed N \
        --seconds S --trace 0|1

One process, one op at a time (a closed loop with a single caller), BLAS
pinned to one thread. Ops run until about S seconds of op time are spent;
each op's inputs come from (seed, op index) only. Before every op the
workload is also set up for half a second (`setup_s` is the median of those
batch means), and after it the op is checked against the acceptance suite's
bounds; neither counts as op time. After the loop, the independent
references of `bench/reference.py` are computed for the first few ops.

With --trace 1, even-numbered ops run with spans recorded around the
package's public functions (see `bench/tracing.py`) and odd-numbered ops run
bare, so the tracing overhead is the difference of their medians.

Results, spans and the environment go to bench/out/; the last line of
standard output is the JSON summary
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy is imported

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_BATCH_S = 0.5

# end-to-end metrics of a --trace 0 run: name -> unit
END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s", "pass_ratio": "ratio",
    "peak_rss_mb": "MB", "err.max": "1", "ref_err.max": "1",
}


def _import_package():
    """Import discsteer from this checkout's src/, and nowhere else."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import discsteer
    except ImportError as exc:
        sys.exit(f"error: cannot import discsteer from {SRC}: {exc}")
    if Path(discsteer.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: discsteer resolved to {discsteer.__file__}, not {SRC}")
    return discsteer


def environment(args, workload):
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "sizes": workload.sizes,
    }


def setup_batch(workload, tracer=None):
    """Set up repeatedly for SETUP_BATCH_S; returns (context, mean seconds).

    Host contention comes and goes within seconds, so one set-up sample is
    the mean over a batch, and batches are spread through the run.
    """
    times = []
    while sum(times) < SETUP_BATCH_S:
        if tracer:
            tracer.op = f"setup{len(times)}"
            tracer.install()
        t0 = time.perf_counter()
        ctx = workload.setup()
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
            tracer.op = None
    return ctx, statistics.fmean(times)


def run_ops(workload, ctx, args, tracer, errors, setups):
    """Closed loop of ops for about args.seconds.

    Between ops, untimed: a set-up batch (appended to `setups`) and the op's
    acceptance checks. Returns (record, input, kept output) per op, keeping
    only what the first `workload.references` ops need for their reference.
    """
    import numpy as np
    ops = []
    spent = 0.0
    while True:
        enough = len(ops) >= (2 if tracer else 1)
        if enough and spent + 0.5 * spent / len(ops) >= args.seconds:
            break
        if ops:
            setups.append(setup_batch(workload)[1])
        i = len(ops)
        inp = workload.make_input(ctx, np.random.default_rng([args.seed, i]), i)
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.op = i
            tracer.install()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                out, error = workload.run(ctx, inp), None
            except errors as exc:
                out, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        spent += seconds
        if traced:
            tracer.uninstall()
            tracer.op = None
        record = {"op": i, "seconds": seconds, "traced": traced, "error": error,
                  "resolution_warnings": sum("below resolution" in str(w.message)
                                             for w in caught)}
        if traced:
            tracer.count("dynamics.resolution_warnings",
                         record["resolution_warnings"], op=i)
        record["checks"], record["passed"] = {}, False
        if out is not None:
            record["checks"], record["passed"] = workload.check(ctx, inp, out)
        keep = out is not None and i < workload.references
        ops.append((record, inp, workload.keep(out)) if keep
                   else (record, None, None))
        inp = out = None  # free them before the next op's memory peak
    return ops


def end_to_end(workload, setups, records, peak_rss_mb):
    seconds = [r["seconds"] for r in records]
    passed = sum(r["passed"] for r in records)
    errs = [r["checks"][workload.err_key] for r in records if r["checks"]]
    refs = [r["reference"]["ref_err"] for r in records if r.get("reference")]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(seconds) / sum(seconds),
        "op_s.p50": statistics.median(seconds),
        "pass_ratio": passed / len(records),
        "peak_rss_mb": peak_rss_mb,
        # with no op output to measure, report a 100% error (finite for JSON)
        "err.max": max(errs, default=1.0),
        "ref_err.max": max(refs, default=1.0),
    }
    return {k: {"value": float(v), "unit": END_TO_END[k]}
            for k, v in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["synth", "steer", "propagate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    package = _import_package()
    import numpy as np
    import reference
    from tracing import Tracer, per_layer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    env = environment(args, workload)
    tracer = Tracer(package) if args.trace else None

    ctx, first = setup_batch(workload, tracer)
    setups = [first]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        workload.prepare(ctx)
    env["prepare_resolution_warnings"] = sum("below resolution" in str(w.message)
                                             for w in caught)

    ops = run_ops(workload, ctx, args, tracer, package.DiscSteerError, setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # untimed, after the peak memory is read: the independent references
    records = []
    for record, inp, kept in ops:
        if kept is not None:
            record["reference"] = workload.reference(ctx, inp, kept)
        records.append(record)
    selfcheck = reference.self_check(ctx.sys.lambdas, ctx.sys.M,
                                     np.random.default_rng(args.seed))
    selfcheck_ok = (selfcheck["bilinear_vs_expm"] <= selfcheck["bilinear_own_err"]
                    and selfcheck["bilinear_own_err"] <= 1e-5
                    and selfcheck["forced_vs_closed_form"] <= 1e-12
                    and selfcheck["linearized_vs_closed_form"] <= 1e-12)

    failed = sum(not r["passed"] for r in records)
    if tracer:
        metrics = per_layer(tracer, records)
    else:
        metrics = end_to_end(workload, setups, records, peak_rss_mb)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result = {"environment": env, "setup_s": setups, "ops": records,
              "reference_self_check": selfcheck,
              "reference_self_check_ok": selfcheck_ok,
              "peak_rss_mb": peak_rss_mb, "metrics": metrics}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=float)
    if tracer:
        tracer.dump(OUT / f"{stem}-spans.json")

    print("environment " + json.dumps(env, default=float))
    for r in records:
        detail = ", ".join(f"{k} {v:.3e}" for k, v in
                           {**r["checks"], **r.get("reference", {})}.items())
        print(f"op {r['op']:3d} {r['seconds']:8.3f} s "
              f"{'traced ' if r['traced'] else ''}"
              f"{'PASS' if r['passed'] else 'FAIL'} {detail}, "
              f"resolution warnings {r['resolution_warnings']}"
              f"{' ' + r['error'] if r['error'] else ''}")
    print(f"fail_ratio {failed / len(records):.3f} ({failed} of {len(records)}); "
          f"op_s.p50 over {len(records)} ops; reference self-check "
          f"{'PASS' if selfcheck_ok else 'FAIL'} {selfcheck}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and selfcheck_ok,
                      "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
