"""One workload rep in a fresh process; prints one JSON object as its last line.

Started by run.py, never by hand. The process builds the workload's inputs
from the seed (set-up ends here), runs every operation once in the timed
region, then checks the outputs against the workload's oracles outside it.
With --trace 1 it wraps npde's public functions before building inputs and
records spans only inside the timed region.

Thread-count variables are set before numpy is imported, so BLAS runs one
thread whatever the caller's environment says.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--tmp", required=True, help="scratch directory for this rep")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", default=None, help="where a traced rep writes its spans")
    p.add_argument("--setup-only", action="store_true",
                   help="stop once inputs are ready (an extra set-up sample)")
    return p.parse_args(argv)


def _versions() -> dict:
    import platform

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    import workloads

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, tmp)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outputs, op_seconds, errors = {}, {}, {}
    if tracer is not None:
        tracer.enabled = True
    start, cpu_start = time.perf_counter(), time.process_time()
    for op in ops:
        t = time.perf_counter()
        try:
            outputs[op.name] = op.run()
        except Exception as err:  # a raising operation is one failure; the rep goes on
            errors[op.name] = f"{type(err).__name__}: {err}"
        op_seconds[op.name] = time.perf_counter() - t
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    if tracer is not None:
        tracer.enabled = False
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, failed = [], []
    for op in ops:
        if op.name in errors:
            failed.append(op.name)
            checks.append({"op": op.name, "name": f"{op.name}-raised", "passed": False,
                           "note": errors[op.name]})
            continue
        try:
            verdicts = op.check(outputs)
        except Exception as err:  # an oracle that cannot read the output fails it
            verdicts = [workloads.Check(f"{op.name}-oracle", False, float("nan"), float("nan"),
                                        f"{type(err).__name__}: {err}")]
        checks += [{"op": op.name, "name": c.name, "passed": bool(c.passed),
                    "measured": float(c.measured), "tol": float(c.tol), "note": c.note}
                   for c in verdicts]
        if not all(c.passed for c in verdicts):
            failed.append(op.name)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib,
        "op_seconds": op_seconds,
        "attempted": len(ops),
        "failed": len(failed),
        "failed_ops": failed,
        "checks": checks,
        "extra": workloads.extra_metrics(args.workload, outputs, op_seconds, tmp),
        "versions": _versions(),
    }
    if tracer is not None:
        import spans
        arrays = tracer.arrays()
        result["layers"] = spans.layer_metrics(spans.aggregate(tracer.names, *arrays),
                                               tracer.counters)
        result["spans"] = len(arrays[0])
        if args.spans_out:
            tracer.save(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
