"""Child process of run.py: builds one workload and runs it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE [--part I]

run.py starts it with the checkout's src/ first on PYTHONPATH, BLAS threads
pinned, and PERFBENCH_T0 set to its CLOCK_MONOTONIC reading taken just
before the start.  It runs on one CPU, picked by --part, and so do the CLI
processes it starts.  The last line of stdout is one JSON object.  Every
mode reports setup_s, the time from that reading to the end of the set-up.

Modes:
  measure  setup, then pass I of the run over the pool; every op's output
           is checked after the timed phase.  Reports passes_wanted, the
           run's number of passes: round(--seconds / PASS_S), at least
           MIN_PASSES (see Workload.PASS_S)
  trace    setup, then pairs of passes over the same ops, one untraced and
           one traced, ending at the pair boundary nearest to --seconds or
           after MAX_TRACED_PASSES pairs; reports per-layer spans
  faults   check that the oracle rejects an injected wrong output of every
           op kind in the pool
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# an op's latency is its median time over at least this many passes
MIN_PASSES = 3
# per-layer figures are per-pass averages; more traced passes only add spans
MAX_TRACED_PASSES = 10


def environment() -> dict:
    import numpy as np

    import ftqc

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "ftqc_file": ftqc.__file__,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed(run, op) -> tuple[float, tuple]:
    start = time.perf_counter()
    try:
        outcome = (True, run(op))
    except Exception as exc:  # an unexpected exception is a failed op, not a crash
        outcome = (False, exc)
    return time.perf_counter() - start, outcome


def check_all(outcomes) -> list[str]:
    failures = []
    for op, (ok, value) in outcomes:
        msg = op.check(ok, value)
        if msg is not None:
            failures.append(f"{op.kind}: {msg}")
    return failures


def measure(wl, seconds: float, part: int) -> dict:
    index = {id(op): i for i, op in enumerate(wl.pool)}
    timings, outcomes = [], []
    start = time.perf_counter()
    for op in next(wl.passes(part)):
        lat, outcome = timed(type(op).run, op)
        timings.append((index[id(op)], lat))
        outcomes.append((op, outcome))
    elapsed = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if wl.rss_from_children else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    failures = check_all(outcomes)
    return {
        "timings": timings,
        "passes": 1,
        "passes_wanted": max(MIN_PASSES, round(seconds / wl.PASS_S)),
        "elapsed_s": elapsed,
        "peak_rss_mb": peak_kb / 1024.0,
        "rss_children": wl.rss_from_children,
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures[:5],
    }


def trace(wl, seconds: float, workload: str, seed: int) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    outcomes, op_walls = [], {}
    plain_s = traced_s = 0.0
    passes = out_bytes = 0
    start = time.perf_counter()
    for batch in wl.passes():
        for op in batch:
            lat, outcome = timed(wl.run_traced, op)
            plain_s += lat
            outcomes.append((op, outcome))
        tracer.install()
        try:
            for op in batch:
                tracer.op = len(op_walls)
                lat, outcome = timed(wl.run_traced, op)
                op_walls[tracer.op] = lat
                traced_s += lat
                out_bytes += op.out_bytes(outcome[1]) if outcome[0] else 0
                outcomes.append((op, outcome))
        finally:
            tracer.uninstall()
        passes += 1
        done = time.perf_counter() - start
        if done + done / passes / 2 >= seconds or passes == MAX_TRACED_PASSES:
            break
    failures = check_all(outcomes)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s[:5]) + "\n")
    summary = tracer.summary(passes, op_walls)
    summary.update(
        passes=passes,
        ops_per_pass=len(op_walls) / passes,
        out_bytes=out_bytes / passes,
        overhead_ratio=traced_s / plain_s - 1.0,
        spans_file=str(path.relative_to(ROOT)),
        attempted=len(outcomes),
        failed=len(failures),
        failures=failures[:5],
    )
    return summary


def faults(wl) -> dict:
    """Run one op of each kind, then feed its check a wrong output."""
    import inject

    seen, report = set(), []
    for op in wl.pool:
        if op.kind in seen:
            continue
        seen.add(op.kind)
        _, (ok, value) = timed(wl.run_traced, op)
        clean = op.check(ok, value)
        for label, bad_ok, bad_value in inject.wrong_outputs(op, ok, value):
            report.append(
                {"kind": op.kind, "fault": label, "clean_ok": clean is None,
                 "fault_rejected": op.check(bad_ok, bad_value) is not None}
            )
    return {"checks": report}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace", "faults"), required=True)
    ap.add_argument("--part", type=int, default=0)
    args = ap.parse_args()
    t0 = float(os.environ["PERFBENCH_T0"])
    # the children of a run take the allowed CPUs in turn (see run.py)
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[args.part % len(cpus)]})

    import ftqc
    from workloads import WORKLOADS

    if not Path(ftqc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ftqc was imported from {ftqc.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3
    wl = WORKLOADS[args.workload](args.seed, ROOT)
    result = {"setup_s": time.monotonic() - t0}
    if args.mode == "measure":
        result.update(measure(wl, args.seconds, args.part))
    elif args.mode == "trace":
        result.update(trace(wl, args.seconds, args.workload, args.seed))
    elif args.mode == "faults":
        result.update(faults(wl))
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
