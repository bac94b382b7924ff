#!/usr/bin/env python3
"""npde benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (npde is imported from ``src/``, so
nothing needs installing). Each workload run is a fresh process with one
BLAS thread; runs repeat until ``--seconds`` have passed, then extra
set-up-only processes top the set-up samples up to eleven. Medians are
reported.

With ``--trace 0`` the last line holds the end-to-end metrics (wall_s,
setup_s, peak_rss_mb). With ``--trace 1`` every untraced run is paired with a
traced one, and the last line holds the per-layer metrics of the traced runs
plus the tracing overhead. Lines before it give a readable report and the
run record. The exit code is 0 only when every oracle passed; 2 means the
benchmark could not run at all (for instance no ``src/npde`` here) and
prints no result.

Workloads, metrics and the layer map are described in README.md beside this
file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans
from worker import THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("medium-1d", "turing-2d", "xor-train", "solve-cli")
SETUP_SAMPLES = 11
HARD_LIMIT_S = 170.0          # every process of one invocation ends within this

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Starts worker processes for one invocation and keeps their results."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.scratch = ROOT / ".bench_run"
        # one BLAS thread, and one hash seed so every worker iterates sets alike
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS},
                        PYTHONHASHSEED="0")
        self.count = 0
        self.traced = 0

    def spawn(self, trace: int = 0, setup_only: bool = False) -> dict:
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("time limit reached before the run finished")
        self.count += 1
        tmp = self.scratch / "tmp" / f"{self.args.workload}-{os.getpid()}-{self.count}"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--tmp", str(tmp), "--trace", str(trace)]
        if trace:
            # one file per workload and traced run: the next invocation overwrites it
            self.traced += 1
            spans_dir = self.scratch / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--spans-out", str(spans_dir / f"{self.args.workload}-{self.traced}.npz")]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {HARD_LIMIT_S:.0f} s limit") from None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(lines[-1])


def _cpu_record() -> dict:
    rec = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "machine": platform.machine(), "cpu_model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                rec["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            rec["caches"][f"L{level}"] = size
    return rec


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(args) -> tuple[dict, dict]:
    """Run the workload for ``args.seconds``; return (result line, run record)."""
    runner = Runner(args)
    runs, traced = [], []
    while True:
        runs.append(runner.spawn())
        if args.trace:
            traced.append(runner.spawn(trace=1))
        if time.monotonic() - runner.started >= args.seconds:
            break
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(setup_only=True)["setup_s"])
    result, record = summarize(runs, traced, setups)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, git_sha=_git_sha(), cpu=_cpu_record(),
                  threads={var: runner.env[var] for var in THREAD_VARS})
    return result, record


def summarize(runs: list, traced: list, setups: list) -> tuple[dict, dict]:
    """Reduce worker results to the result line and the run record.

    ``runs`` are untraced workload runs, ``traced`` the traced ones (empty
    unless tracing), ``setups`` every set-up sample. Failures are counted
    over all workload runs, traced ones included.
    """
    every = runs + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    walls = [r["wall_s"] for r in runs]
    figures = {
        "wall_s": (median(walls), len(walls)),
        "setup_s": (median(setups), len(setups)),
        "peak_rss_mb": (median([r["peak_rss_mib"] for r in runs]), len(runs)),
    }
    for key in sorted({k for r in runs for k in r["extra"]}):
        values = [r["extra"][key] for r in runs if key in r["extra"]]
        figures[key] = (median(values), len(values))

    if traced:
        layers = {k: median([t["layers"][k] for t in traced]) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = median([t["wall_s"] for t in traced]) - figures["wall_s"][0]
        layers["trace.spans"] = median([t["spans"] for t in traced])
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": figures[k][0], "unit": u} for k, u in END_TO_END_UNITS.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "versions": runs[0]["versions"],
        "figures": {k: {"median": v, "samples": n} for k, (v, n) in figures.items()},
        "failed_share": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "runs": [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mib", "op_seconds", "extra")}
                 for r in runs],
        "traced_walls": [t["wall_s"] for t in traced],
        "failures": [c for r in every for c in r["checks"] if not c["passed"]],
        "checks": runs[0]["checks"],
    }
    return result, record


def report(result: dict, record: dict) -> None:
    print(f"npde bench  workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']}")
    for c in record["checks"]:
        print(f"  {'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
              f"measured={c.get('measured', float('nan')):.6g} tol={c.get('tol', float('nan')):.6g}"
              f"  {c.get('note', '')}")
    units = dict(END_TO_END_UNITS, epoch_ms="ms", output_mb="MB", epochs="count")
    for name, fig in record["figures"].items():
        print(f"  {name:<14} {fig['median']:.6g} {units.get(name, '')}"
              f"  (median of {fig['samples']})")
    share = record["failed_share"]
    print(f"  {'failed_share':<14} {share['value']:.6g}"
          f"  ({share['failed']} failed / {share['attempted']} attempted)")
    if record["trace"]:
        for name, m in result["metrics"].items():
            if m["value"]:
                print(f"  {name:<46} {m['value']:.6g} {m['unit']}")
    print("record " + json.dumps(record, sort_keys=True))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "npde" / "__init__.py").is_file():
        print(f"no npde sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result, record = measure(args)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2
    report(result, record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
