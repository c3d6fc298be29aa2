"""The benchmark's four workloads: seeded inputs, the op each one times, and
the check of every op's output against oracle.py.

Every workload is a closed loop with one caller: the next op starts when
the previous one has returned.  Its inputs come from the seed alone, as a
pool of ops that each pass runs in a freshly shuffled order.

Why each workload exists:

* certify_sweep - the acceptance gate's own traffic (criterion 02): one
  certify_combined_bound per op, which compiles a channel every time.  The
  median op is overhead-bound at n <= 2; the tail is channels.apply at n = 4.
* search_alpha - one compile, then many Kraus applies on non-basis pure
  states.  A change that skips the compiled channel to speed up
  certify_sweep shows here if it slows the search.
* plan_scan - the only workload where ftcalc and vote do the work; it
  simulates nothing, so a simulation change should leave it unchanged.
* cli_mix - what a CLI user waits for: one fresh `python -m ftqc.cli`
  process per op, dominated by interpreter start-up and `import ftqc`.

BENCHMARK.json declares plan_scan and cli_mix only; certify_sweep and
search_alpha run by name.  Their ops are numpy-bound, and on the 2-core
host the benchmark was built on, numpy-bound code ran up to 1.7x slower
for spells longer than a run: ten 35-s single-process runs of
certify_sweep spread by 0.30 (ops_per_s) and 0.45 (op_s_tail) of their
median, above the largest bound the benchmark may set.  Their layers are still traced through
cli_mix's verify ops.

Widths n >= 5 are left out.  At n = 5 compile_noisy takes 2.0 s and one
apply of 1024 Kraus operators 4.8 s; at n = 6 the compile takes 95 s; at
n = 7-8 the d**4 operator stack does not fit in 8 GB.  A wide workload
belongs in the benchmark once the verifier runs these widths.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from ftqc import channels, cli, errors, ftcalc, kitaev, qcc, vote

import oracle

ONE_QUBIT_GATES = ("I", "X", "Y", "Z", "H", "S", "T")
TWO_QUBIT_GATES = ("CNOT", "CZ")

# Documented ceiling of vote.min_repetitions' ascending search.
REPETITION_CAP = 10 ** 5

SIM_TOL = 1e-9
VOTE_TOL = 1e-9


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


class Op:
    """One timed call into the program and the check of what it returned.

    run() calls the program; check(ok, value) gets ok=False and the
    exception when run() raised, and returns None or a failure message.
    Subclasses compute their reference lazily, outside the timed region.
    """

    kind = "op"

    def run(self):
        raise NotImplementedError

    def check(self, ok: bool, value) -> str | None:
        raise NotImplementedError

    def out_bytes(self, value) -> int:
        """Bytes the op wrote for a user to read; only CLI ops write any."""
        return 0


def _unexpected(ok: bool, value) -> str | None:
    if not ok:
        return f"raised {type(value).__name__}: {value}"
    return None


class Workload:
    """A seeded pool of ops; passes() yields it in a new order each pass.
    An op may sit in the pool more than once, to be timed more often.

    PASS_S is the nominal time of one pass on the host the benchmark was
    built on (2-core Xeon, 2.1 GHz).  A measured run makes
    round(seconds / PASS_S) passes, so the number of samples behind every
    metric depends on --seconds only, not on how fast the host is that day.
    """

    PASS_S = 1.0
    # peak RSS is read from the worker itself, or from its largest child
    rss_from_children = False

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.rng = np.random.default_rng([seed, self.TAG])
        self.pool: list[Op] = []

    def passes(self, part: int = 0):
        """Endless passes over the pool; each child of a run (`part`) draws
        its own sequence of orders."""
        order = np.random.default_rng([self.seed, self.TAG, part])
        while True:
            yield [self.pool[i] for i in order.permutation(len(self.pool))]

    def run_traced(self, op: Op):
        return op.run()


# --- certify_sweep ------------------------------------------------------------

def draw_instance(rng: np.random.Generator, n: int | None = None, n_gates: int | None = None) -> dict:
    """One instance from criterion 02's distribution (tests/helpers.py):
    1-4 qubits, 0-12 gates, depolarizing strength in [0, 0.5], all basis
    inputs, a random binary truth table read out on qubit 0."""
    if n is None:
        n = int(rng.integers(1, 5))
    if n_gates is None:
        n_gates = int(rng.integers(0, 13))
    gates = []
    for _ in range(n_gates):
        if n >= 2 and rng.random() < 0.35:
            name = TWO_QUBIT_GATES[int(rng.integers(0, len(TWO_QUBIT_GATES)))]
            a, b = rng.choice(n, size=2, replace=False)
            gates.append([name, [int(a), int(b)]])
        else:
            name = ONE_QUBIT_GATES[int(rng.integers(0, len(ONE_QUBIT_GATES)))]
            gates.append([name, [int(rng.integers(0, n))]])
    strength = float(rng.uniform(0.0, 0.5))
    inputs = [format(i, f"0{n}b") for i in range(2 ** n)]
    table = {x: str(int(rng.integers(0, 2))) for x in inputs}
    return {"n": n, "gates": gates, "strength": strength, "truth_table": table}


def touched(inst: dict) -> int:
    return len({q for _, targets in inst["gates"] for q in targets})


def build_circuit(inst: dict):
    gates = tuple(channels.Gate(targets=tuple(t), name=name) for name, t in inst["gates"])
    circ = channels.Circuit(num_qubits=inst["n"], gates=gates)
    noise = channels.NoiseModel(kind="depolarizing", strength=inst["strength"])
    return circ, noise


class CertifyOp(Op):
    kind = "certify"

    def __init__(self, inst: dict):
        self.inst = inst
        self.circ, self.noise = build_circuit(inst)
        n = inst["n"]
        inputs = tuple(inst["truth_table"])
        self.comp = kitaev.OverallComputation(
            inputs=inputs,
            outputs=("0", "1"),
            truth_table=inst["truth_table"],
            init=kitaev.basis_encoding(n, inputs),
            povm=kitaev.basis_readout(n, measured=(0,)),
        )
        self.ref = None

    def run(self):
        return qcc.certify_combined_bound(self.circ, self.noise, self.comp)

    def check(self, ok, value):
        bad = _unexpected(ok, value)
        if bad:
            return bad
        if self.ref is None:
            self.ref = oracle.certification(self.inst)
        got = value.to_dict()
        if got["bound_holds"] is not True:
            return "bound_holds is not true"
        for key in ("alpha", "p", "worst_margin"):
            if not _close(got[key], self.ref[key], SIM_TOL):
                return f"{key} {got[key]!r} != reference {self.ref[key]!r}"
        if [r["x"] for r in got["per_input"]] != [r["x"] for r in self.ref["per_input"]]:
            return "per-input labels differ from the reference"
        for mine, want in zip(got["per_input"], self.ref["per_input"]):
            for key in ("ideal_success", "actual_success", "inaccuracy_x"):
                if not _close(mine[key], want[key], SIM_TOL):
                    return f"input {mine['x']} {key} {mine[key]!r} != reference {want[key]!r}"
        return None


class CertifySweep(Workload):
    """A pool of 24 criterion-02 instances, 6 per width.

    Within each width the pool holds a fixed count of instances for each
    number t of qubits the gates touch, in the shares criterion 02's
    generator produces them (from 2e5 draws, rounded by largest remainder).
    t sets the Kraus rank 4**t, which sets an op's cost within a factor of
    50 at n = 4, so fixing the counts keeps the pool's work the same from
    seed to seed while the seed still draws every gate, strength and truth
    table.  A small pool runs many passes, so each op's median time is taken
    over many runs.
    """

    TAG = 2
    PASS_S = 4.0
    QUOTAS = {
        1: {1: 6},
        2: {0: 1, 2: 5},
        3: {0: 1, 2: 1, 3: 4},
        4: {0: 1, 2: 1, 3: 1, 4: 3},
    }

    def __init__(self, seed, root):
        super().__init__(seed, root)
        need = {(n, t): c for n, row in self.QUOTAS.items() for t, c in row.items()}
        while need:
            inst = draw_instance(self.rng)
            key = (inst["n"], touched(inst))
            if need.get(key):
                need[key] -= 1
                if not need[key]:
                    del need[key]
                self.pool.append(CertifyOp(inst))


# --- search_alpha ---------------------------------------------------------------

class SearchOp(Op):
    kind = "search"

    def __init__(self, inst, chans, trials, search_seed):
        self.inst = inst
        self.P, self.G, self.link = chans
        self.trials = trials
        self.search_seed = search_seed
        self.ref = None

    def run(self):
        return qcc.alpha_random_search(self.P, self.G, self.link, self.trials, self.search_seed)

    def check(self, ok, value):
        bad = _unexpected(ok, value)
        if bad:
            return bad
        if self.ref is None:
            self.ref = oracle.random_search_alpha(self.inst, self.trials, self.search_seed)
        if not _close(value, self.ref, SIM_TOL):
            return f"alpha {value!r} != reference {self.ref!r}"
        return None


class SearchAlpha(Workload):
    """Three circuits (2, 3 and 3 qubits, 4-8 gates that touch every qubit,
    strength in [0.05, 0.5]) compiled once each; each op is one
    alpha_random_search of TRIALS states on one of them, with one of three
    search seeds per circuit.  Touching every qubit gives every channel the
    full Kraus rank 4**n, so the work per op does not depend on the seed."""

    TAG = 3
    PASS_S = 0.6
    TRIALS = 50
    WIDTHS = (2, 3, 3)
    SEARCH_SEEDS = 3

    def __init__(self, seed, root):
        super().__init__(seed, root)
        for n in self.WIDTHS:
            while True:
                inst = draw_instance(self.rng, n=n, n_gates=int(self.rng.integers(4, 9)))
                if touched(inst) == n:
                    break
            inst["strength"] = float(self.rng.uniform(0.05, 0.5))
            circ, noise = build_circuit(inst)
            link = qcc.LinkingMaps()
            chans = (qcc.implemented_channel(circ, noise, link), channels.compile_ideal(circ), link)
            for _ in range(self.SEARCH_SEEDS):
                search_seed = int(self.rng.integers(0, 2 ** 32))
                self.pool.append(SearchOp(inst, chans, self.TRIALS, search_seed))


# --- plan_scan --------------------------------------------------------------------

class LevelsOp(Op):
    """A planner query whose minimal level is `levels`: eps0 is drawn
    between the largest gate errors that levels-1 and levels admit, so the
    search length, and with it the op's cost, is fixed by `levels`."""

    kind = "required_levels"

    def __init__(self, rng, levels):
        eps_th = float(10 ** rng.uniform(-4, -2))
        gate_count = int(10 ** rng.uniform(6, 12))  # gate_count * eps_th > 1 > budget
        p = float(rng.uniform(0.0, 0.3))
        p_hat = float(rng.uniform(p + 0.01, 0.5))
        log_ratio = math.log((p_hat - p) / 2.0 / (gate_count * eps_th))
        lo, hi = (math.log(eps_th) + log_ratio / 2.0 ** n for n in (levels - 1, levels))
        u = float(rng.uniform(0.05, 0.95))
        self.args = dict(
            eps0=math.exp(lo + u * (hi - lo)), eps_th=eps_th, gate_count=gate_count, p=p, p_hat=p_hat
        )
        self.params = ftcalc.FtParams(**self.args)

    def run(self):
        return ftcalc.required_levels(self.params)

    def check(self, ok, value):
        bad = _unexpected(ok, value)
        if bad:
            return bad
        a = self.args
        budget = (a["p_hat"] - a["p"]) / 2.0
        if not _rel_close(value.budget, budget, 1e-12):
            return f"budget {value.budget!r} != {budget!r}"
        if not oracle.level_is_minimal(a["eps0"], a["eps_th"], a["gate_count"], budget, value.levels):
            return f"level {value.levels} is not the minimal feasible level"
        log_fail = min(0.0, math.log(a["gate_count"]) + oracle.log_level_error(a["eps0"], a["eps_th"], value.levels))
        if value.eps_qc > 0.0 and not _close(math.log(value.eps_qc), log_fail, 1e-9):
            return f"eps_qc {value.eps_qc!r} != exp({log_fail!r})"
        return None


class MaxErrorOp(Op):
    kind = "max_gate_error"

    def __init__(self, rng):
        p = float(rng.uniform(0.0, 0.3))
        self.args = (
            int(rng.integers(0, 6)),
            10 ** rng.uniform(-4, -2),
            int(10 ** rng.uniform(3, 12)),
            float(rng.uniform(p + 0.01, 0.5)),
            p,
        )

    def run(self):
        return ftcalc.max_gate_error(*self.args)

    def check(self, ok, value):
        bad = _unexpected(ok, value)
        if bad:
            return bad
        levels, eps_th, gate_count, p_hat, p = self.args
        budget = (p_hat - p) / 2.0
        if budget >= gate_count * eps_th:
            return None if value == eps_th else f"{value!r} is not the clamp {eps_th!r}"
        log_fail = math.log(gate_count) + oracle.log_level_error(value, eps_th, levels)
        if not _close(log_fail, math.log(budget), 1e-9):
            return f"failure at eps0={value!r} is exp({log_fail!r}), not the budget {budget!r}"
        return None


class TradeoffOp(Op):
    """A POINTS-point staircase from SPAN * eps_th up to eps_th, with the gate
    count set so that gate_count * eps_th / budget is LOAD.  Every query
    then needs the same levels at the same grid points, so its cost does
    not depend on the seed, which draws eps_th, p and the budget."""

    kind = "tradeoff_curve"
    POINTS = 500
    SPAN = 1e-4
    LOAD = 1e8

    def __init__(self, rng):
        eps_th = float(10 ** rng.uniform(-4, -2))
        p = float(rng.uniform(0.0, 0.3))
        budget = float(rng.uniform(0.005, 0.1))
        self.lo = eps_th * self.SPAN
        self.kw = dict(
            eps_th=eps_th, gate_count=round(self.LOAD * budget / eps_th), p=p, p_hat=p + 2.0 * budget
        )

    def run(self):
        return ftcalc.tradeoff_curve(self.lo, self.kw["eps_th"], self.POINTS, **self.kw)

    def check(self, ok, value):
        bad = _unexpected(ok, value)
        if bad:
            return bad
        kw = self.kw
        grid = np.geomspace(self.lo, kw["eps_th"], self.POINTS, endpoint=False)
        if len(value) != self.POINTS:
            return f"{len(value)} points, expected {self.POINTS}"
        budget = (kw["p_hat"] - kw["p"]) / 2.0
        last = 0
        for row, e0 in zip(value, grid):
            if not _rel_close(row.eps0, float(e0), 1e-12):
                return f"grid point {row.eps0!r} != {float(e0)!r}"
            if row.levels < last:
                return f"staircase decreases at eps0={row.eps0!r}"
            if not oracle.level_is_minimal(row.eps0, kw["eps_th"], kw["gate_count"], budget, row.levels):
                return f"level {row.levels} at eps0={row.eps0!r} is not minimal"
            last = row.levels
        return None


class MajorityOp(Op):
    kind = "majority_success"

    def __init__(self, rng):
        k = 2 * int(rng.integers(500, 10001)) + 1
        self.args = (0.5 - float(rng.uniform(0.2, 1.2)) / math.sqrt(k), k)

    def run(self):
        return vote.majority_success(*self.args)

    def check(self, ok, value):
        bad = _unexpected(ok, value)
        if bad:
            return bad
        want = oracle.majority_success(*self.args)
        return None if _close(value, want, VOTE_TOL) else f"{value!r} != reference {want!r}"


class MinRepetitionsOp(Op):
    """p' = P_PRIME, just below 1/2, with the target drawn between the
    oracle's success at k*-2 and k*, so the answer is k* and the search
    length (k*/2 majority_success calls) is fixed by k*, not by the seed.
    p' is fixed too: the cost of scipy's binomial tail moves by up to a
    quarter between nearby p' in [0.48, 0.49], and this op sets op_s_tail."""

    kind = "min_repetitions"
    P_PRIME = 0.485

    def __init__(self, rng, k_star):
        lo, hi = (oracle.majority_success(self.P_PRIME, k) for k in (k_star - 2, k_star))
        self.args = (self.P_PRIME, lo + float(rng.uniform(0.1, 0.9)) * (hi - lo))
        self.k_star = k_star

    def run(self):
        return vote.min_repetitions(*self.args)

    def check(self, ok, value):
        bad = _unexpected(ok, value)
        if bad:
            return bad
        return None if value == self.k_star else f"k={value!r}, expected {self.k_star}"


class CapOp(Op):
    """A target no odd k <= REPETITION_CAP reaches: the expected outcome is
    CapExceededError, after a scan of every odd k up to the cap."""

    kind = "min_repetitions_cap"

    def __init__(self, rng):
        self.args = (float(rng.uniform(0.4995, 0.4998)), float(rng.uniform(0.95, 0.99)))

    def run(self):
        return vote.min_repetitions(*self.args)

    def check(self, ok, value):
        if ok:
            return f"returned {value!r}, expected CapExceededError"
        if not isinstance(value, errors.CapExceededError):
            return f"raised {type(value).__name__}, expected CapExceededError"
        top = REPETITION_CAP - 1  # the largest odd k the search tries
        reach = oracle.majority_success(self.args[0], top)
        return None if reach < self.args[1] else f"k={top} reaches {reach!r}; the refusal is wrong"


class PlanScan(Workload):
    """A pass of 55 planner queries: 12 required_levels (2 at each minimal
    level from 1 to 6), 2 max_gate_error, 4 majority_success at k in
    1001-20001, 4 tradeoff_curve of the same size run 8 times each, two
    min_repetitions answering k = 4001 and 8001 run twice each, and one
    target past REPETITION_CAP.

    The counts put the median op inside the tradeoff_curve class, at a few
    ms; medians of microsecond-scale ops spread by more than a quarter from
    run to run on the host the benchmark was built on.  That host's speed
    moves between two levels up to 1.8x apart, so the cheap ops repeat
    within a pass: each op's median time is then taken over many runs
    spread across the whole run.  The refused target scans every odd k up
    to the cap (about 3 s), so one of them per pass keeps a pass near 4 s.
    With up to 10 passes the op with 10 slower runs beyond it is the
    k = 8001 search."""

    TAG = 4
    PASS_S = 4.2

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = self.rng
        self.pool += [LevelsOp(rng, levels) for levels in range(1, 7) for _ in range(2)]
        self.pool += [MaxErrorOp(rng) for _ in range(2)]
        self.pool += [MajorityOp(rng) for _ in range(4)]
        self.pool += [TradeoffOp(rng) for _ in range(4)] * 8
        self.pool += [MinRepetitionsOp(rng, k) for k in (4001, 8001)] * 2
        self.pool += [CapOp(rng)]


# --- cli_mix ------------------------------------------------------------------------

CLI_WORK = ".perfbench_out/cli"
VOTE_P_PRIME = 0.15

# One variant of each template runs per pass.  The even-k vote variants are
# expected refusals: they exit 1 with nothing on stdout.  Four templates
# keep a pass near 5 s, so each op runs about seven times in a 36-s run.
CLI_TEMPLATES = [
    [["plan", "--config", "demo/plan.json", "--eps0", e] for e in ("1e-10", "2e-10", "3e-10", "5e-10")]
    + [["plan", "--config", "demo/plan.json", "--format", "csv", "--eps0", e] for e in ("1e-10", "4e-10")]
    + [["plan", "--config", "demo/plan.json", "--levels", str(n)] for n in range(5)]
    + [["plan", "--config", "demo/plan.json", "--format", "csv", "--levels", str(n)] for n in (1, 3)],
    [["tradeoff", "--config", "demo/tradeoff.json", "--format", f] for f in ("csv", "json")],
    [["verify", "--config", "demo/verify.json", "--seed", str(s)] for s in (1, 2, 3, 7)]
    + [["verify", "--config", "demo/verify.json", "--format", "csv", "--seed", str(s)] for s in (1, 2, 3, 7)],
    [["vote", "--config", "demo/vote.json", "--format", f] for f in ("json", "csv")]
    + [["vote", "--config", f"{CLI_WORK}/vote_k{k}.json"] for k in (5, 15, 25, 45, 63)]
    + [["vote", "--config", f"{CLI_WORK}/vote_k{k}.json", "--format", "csv"] for k in (7, 33)]
    + [["vote", "--config", f"{CLI_WORK}/vote_k{k}.json"] for k in (4, 10, 30)],
]
GOLDEN = Path(__file__).with_name("cli_golden.json")


def write_cli_configs(root: Path) -> None:
    work = root / CLI_WORK
    work.mkdir(parents=True, exist_ok=True)
    for k in (4, 5, 7, 10, 15, 25, 30, 33, 45, 63):
        (work / f"vote_k{k}.json").write_text(json.dumps({"p_prime": VOTE_P_PRIME, "k": k}))


def run_cli(argv, root: Path) -> tuple[int, bytes]:
    """One fresh `python -m ftqc.cli` process; the environment is inherited."""
    proc = subprocess.run(
        [sys.executable, "-m", "ftqc.cli", *argv], cwd=root, capture_output=True, timeout=120
    )
    return proc.returncode, proc.stdout


class CliOp(Op):
    kind = "cli"

    def __init__(self, argv, root, golden):
        self.argv = argv
        self.root = root
        self.want = (golden["exit"], golden["stdout"].encode())

    def run(self):
        return run_cli(self.argv, self.root)

    def run_inline(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(self.argv))
        return code, out.getvalue().encode()

    def out_bytes(self, value):
        return len(value[1])

    def check(self, ok, value):
        bad = _unexpected(ok, value)
        if bad:
            return bad
        if value[0] != self.want[0]:
            return f"{' '.join(self.argv)}: exit {value[0]}, expected {self.want[0]}"
        if value[1] != self.want[1]:
            return f"{' '.join(self.argv)}: stdout differs from the recorded bytes"
        return None


class CliMix(Workload):
    """The pool is one seeded variant of each of the 4 templates; stdout
    and the exit code must match the bytes recorded in cli_golden.json at
    the seed commit.  The traced run replays the same argv in-process
    through cli.main."""

    TAG = 5
    PASS_S = 5.0
    rss_from_children = True

    def __init__(self, seed, root):
        super().__init__(seed, root)
        write_cli_configs(root)
        golden = json.loads(GOLDEN.read_text())
        for variants in CLI_TEMPLATES:
            argv = variants[int(self.rng.integers(len(variants)))]
            self.pool.append(CliOp(argv, root, golden[" ".join(argv)]))

    def run_traced(self, op):
        return op.run_inline()


WORKLOADS = {
    "certify_sweep": CertifySweep,
    "search_alpha": SearchAlpha,
    "plan_scan": PlanScan,
    "cli_mix": CliMix,
}
