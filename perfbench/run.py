"""ftqc benchmark: runs one workload in fresh child processes and prints its
metrics; the last line of stdout is one JSON object.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the repository root.  BENCHMARK.json declares the workloads
plan_scan and cli_mix; certify_sweep and search_alpha run by name too (see
workloads.py for why they are left out).  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json, measured with tracing off; with --trace 1 it reports the
per-layer metrics from a separate run that wraps ftqc's public functions
(tracer.py).  Every op's output is checked against oracle.py or, for
cli_mix, against cli_golden.json.  --self-test checks that every declared
metric is reported with its unit and that each check rejects an injected
wrong output.

The children import ftqc from this checkout's src/ only, and run with one
BLAS thread: the ops are small matrices, and one thread keeps runs steady.
Files the runs leave behind go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify_sweep", "search_alpha", "plan_scan", "cli_mix")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SAMPLES = 3
RUN_LIMIT_S = 170.0
# modules whose fresh-process import time is a per-layer metric
IMPORT_LAYERS = ("densmat", "channels", "kitaev", "qcc", "ftcalc", "vote")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FTQC_SEED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def _run(self, argv, extra_env=None) -> tuple[str, str]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before a child could start")
        env = dict(self.env, **(extra_env or {}))
        # a session of its own, so a timeout also stops the CLI processes a
        # cli_mix worker has started
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child exceeded the time limit: {' '.join(argv)}") from exc
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {' '.join(argv)}\n{err[-2000:]}")
        return out, err

    def worker(self, workload, seed, seconds, mode, part=0) -> dict:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
                "--part", str(part)]
        t0 = time.monotonic()
        out, _ = self._run(argv, {"PERFBENCH_T0": repr(t0)})
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"worker printed nothing ({workload}, {mode})")
        return json.loads(lines[-1])

    def import_times(self) -> dict:
        """Median fresh-process import time of ftqc and of each module, in s,
        from `python -X importtime` (cumulative, so a module's figure holds
        the dependencies it was first to import: numpy under densmat,
        scipy.stats under vote)."""
        samples = {}
        for _ in range(IMPORT_SAMPLES):
            _, err = self._run([sys.executable, "-X", "importtime", "-c", "import ftqc"])
            for line in err.splitlines():
                parts = line.split("|")
                if len(parts) != 3 or not parts[1].strip().isdigit():
                    continue
                name = parts[2].strip()
                if name == "ftqc" or name.startswith("ftqc."):
                    samples.setdefault(name, []).append(int(parts[1]) / 1e6)
        if "ftqc" not in samples:
            raise BenchError("python -X importtime did not report ftqc")
        return {name: statistics.median(v) for name, v in samples.items()}


# --- metrics --------------------------------------------------------------------

def merge(parts: list[dict]) -> dict:
    """One measured run from the results of its children, one pass each."""
    res = dict(parts[0])
    res["timings"] = [t for r in parts for t in r["timings"]]
    for key in ("passes", "elapsed_s", "attempted", "failed"):
        res[key] = sum(r[key] for r in parts)
    res["peak_rss_mb"] = max(r["peak_rss_mb"] for r in parts)
    res["failures"] = [msg for r in parts for msg in r["failures"]][:5]
    return res


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    """Metric values with units, and the notes printed beside them.

    Each op of the pool runs at least once per pass, and every run of it
    counts with the median latency of the op's runs in this run.  On the
    host the benchmark was built on, a single run of an op took up to 1.8x
    its usual time, at random and in spells; the median over an op's runs
    in children on both CPUs keeps such runs out of the metrics.  In six
    runs of each workload there, metrics built this way spread by at most
    0.08 of their median; built from every op run as it came, by up to
    0.14, and from each op's best time, which rests on rare fast runs, by
    up to 0.26.  The pass count depends on --seconds only
    (Workload.PASS_S), so the op that sets op_s_tail is the same in every
    run.
    """
    runs = {}
    for item, lat in res["timings"]:
        runs.setdefault(item, []).append(lat)
    typical = {item: statistics.median(v) for item, v in runs.items()}
    lat = sorted(typical[item] for item, _ in res["timings"])
    n = len(lat)
    if n < 11:
        raise BenchError(f"{n} op runs leave no sample with 10 samples beyond it")
    tail_at = n - 11  # the sample with exactly 10 samples beyond it
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_s_p50": (statistics.median(lat), "s"),
        "op_s_tail": (lat[tail_at], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "fail_ratio": (res["failed"] / res["attempted"], "1"),
    }
    shape = f"{n // res['passes']} ops x {res['passes']} passes, median time of each of {len(runs)} distinct ops"
    notes = {
        "ops_per_s": f"n={n}, {shape}; measured phase {res['elapsed_s']:.2f} s",
        "op_s_p50": f"n={n}, {shape}",
        "op_s_tail": f"n={n}, p{100.0 * (tail_at + 1) / n:.1f}, 10 samples beyond",
        "setup_s": f"n={len(setups)} child starts, median",
        "peak_rss_mb": f"n={len(setups)}, largest " + ("ftqc child" if res.get("rss_children") else "workload child"),
        "fail_ratio": f"{res['failed']} of {res['attempted']} ops failed",
    }
    return metrics, notes


def per_layer(res: dict, imports: dict) -> tuple[dict, dict]:
    layers, derived, cov = res["layers"], res["derived"], res["coverage"]
    metrics = {}
    for name, row in layers.items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.busy_s"] = (row["busy_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    units = {"macs_computed": "MAC", "stack_bytes_max": "bytes"}
    for name, value in derived.items():
        metrics[name] = (value, units.get(name.rsplit(".", 1)[1], "count"))
    metrics["cli.out_bytes"] = (res["out_bytes"], "bytes")
    metrics["cli.import_s"] = (imports["ftqc"], "s")
    for mod in IMPORT_LAYERS:
        metrics[f"{mod}.import_s"] = (imports.get(f"ftqc.{mod}", 0.0), "s")
    metrics["trace.op_wall_s"] = (cov["op_wall_s"], "s")
    metrics["trace.self_coverage"] = (cov["ratio"], "ratio")
    metrics["trace.overhead_ratio"] = (res["overhead_ratio"], "ratio")
    notes = {
        "passes": res["passes"],
        "ops per pass": res["ops_per_pass"],
        "self time / op wall": round(cov["ratio"], 4),
        "ops within 5%": round(cov["ops_within_5pct"], 4),
        "spans": res["spans_file"],
    }
    return metrics, notes


def declared(spec: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def select(metrics: dict, wanted: dict) -> dict:
    out = {}
    for name, unit in wanted.items():
        if name in metrics:
            value, have = metrics[name]
        elif name.endswith(".calls"):
            value, have = 0, unit  # a layer this workload never calls
        else:
            raise BenchError(f"metric {name} was not measured")
        if have != unit:
            raise BenchError(f"metric {name} is measured in {have}, declared in {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


# --- one workload -----------------------------------------------------------------

def run_workload(runner: Runner, spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        imports = runner.import_times()
        res = runner.worker(workload, seed, seconds, "trace")
        metrics, notes = per_layer(res, imports)
    else:
        # Each pass runs in a child of its own, pinned to one CPU, the
        # children taking the allowed CPUs in turn.  On the 2-core host the
        # benchmark was built on, one process ran the same Python code up to
        # 1.8x slower than the next for its whole life, and one CPU ran it
        # slower than the other for a minute at a time; an op's median time
        # over children on both CPUs depends on no single child's luck.
        parts = [runner.worker(workload, seed, seconds, "measure")]
        parts += [runner.worker(workload, seed, seconds, "measure", i) for i in range(1, parts[0]["passes_wanted"])]
        res = merge(parts)
        metrics, notes = end_to_end(res, [r["setup_s"] for r in parts])
    env = dict(res["env"], nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               python=platform.python_version(), commit=git_commit())
    print(f"# {workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        note = notes.get(name, "")
        print(f"  {name:48s} {value:>16.6g} {unit:6s} {note}")
    if trace:
        print("# trace " + json.dumps(notes))
    for msg in res["failures"]:
        print(f"# FAILED {msg}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": select(metrics, declared(spec, trace)),
    }


def self_test(spec: dict, seed: int) -> bool:
    """Every declared metric appears with its unit, and every oracle rejects
    an injected wrong output, so failed ops reach `failed` and fail_ratio."""
    ok = True
    for workload in WORKLOADS:
        runner = Runner(time.monotonic() + RUN_LIMIT_S)
        for row in runner.worker(workload, seed, 1.0, "faults")["checks"]:
            good = row["clean_ok"] and row["fault_rejected"]
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {workload:14s} {row['kind']:20s} {row['fault']}")
        for trace in (False, True):
            runner = Runner(time.monotonic() + RUN_LIMIT_S)
            result = run_workload(runner, spec, workload, seed, 1.0, trace)
            good = result["correct"] and set(result["metrics"]) == set(declared(spec, trace))
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {workload:14s} trace={int(trace)} all declared metrics with units")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "ftqc" / "__init__.py").is_file():
        print(f"no ftqc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.self_test:
            return 0 if self_test(spec, args.seed) else 1
        if args.workload is None:
            ap.error("--workload is required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            runner = Runner(time.monotonic() + RUN_LIMIT_S)
            results[name] = run_workload(runner, spec, name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
