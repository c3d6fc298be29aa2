"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Every tolerance is pinned in the assert that enforces it.  The randomized
suites draw from fixed master seeds so reruns are reproducible.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import helpers
from ftqc import (
    Circuit,
    DensityMatrix,
    FtParams,
    Gate,
    HermitianOperator,
    NoiseModel,
    OverallComputation,
    basis_encoding,
    basis_readout,
    certify_combined_bound,
    circuit_failure,
    cli,
    effect_probability,
    logical_gate_error,
    majority_success,
    min_repetitions,
    mixing_inaccuracy_bound_check,
    required_levels,
    trace_norm,
)
from ftqc.ftcalc import FEASIBILITY_SLACK

CAPTION = {"eps_th": 1e-9, "gate_count": 10 ** 12, "p": 0.2}


def announce(capsys, num, name):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {name}: PASS", flush=True)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def identity_parity(num_qubits=1):
    labels = tuple(format(i, f"0{num_qubits}b") for i in range(2 ** num_qubits))
    return OverallComputation(
        inputs=labels,
        outputs=labels,
        truth_table={x: x for x in labels},
        init=basis_encoding(num_qubits, labels),
        povm=basis_readout(num_qubits),
    )


def test_criterion_01_tradeoff_staircase_anchors(tmp_path, capsys):
    started = time.perf_counter()
    anchor_rows = {}
    for p_hat in (0.4, 0.6):  # failure-bound and success-target readings
        cfg = dict(
            CAPTION,
            eps0_min=1e-13,
            eps0_max=1e-9,
            points=40,
            p_hat=p_hat,
        )
        path = tmp_path / f"tradeoff_{p_hat}.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(capsys, ["tradeoff", "--config", str(path)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "eps0,levels,eps_qc,closed_form"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 40
        levels = [int(r[1]) for r in rows]
        assert all(n >= 0 for n in levels)
        assert levels == sorted(levels)  # nonincreasing as eps0 decreases
        # grid indices 20 and 30 sit at the two anchor gate errors
        assert float(rows[20][0]) == pytest.approx(1e-11, rel=1e-9)
        assert float(rows[30][0]) == pytest.approx(1e-10, rel=1e-9)
        anchor_rows[p_hat] = (levels[20], levels[30])
    elapsed = time.perf_counter() - started
    # same anchors under both p-hat interpretations
    assert anchor_rows[0.4] == (1, 2)
    assert anchor_rows[0.6] == (1, 2)
    # iterative minimality certificate at the exact anchor values
    for eps0, want in ((1e-11, 1), (1e-10, 2)):
        result = required_levels(FtParams(eps0=eps0, p_hat=0.4, **CAPTION))
        assert result.levels == want
        budget = result.budget
        assert circuit_failure(
            logical_gate_error(eps0, 1e-9, want), 10 ** 12
        ) <= budget * (1 + FEASIBILITY_SLACK)
        assert circuit_failure(logical_gate_error(eps0, 1e-9, want - 1), 10 ** 12) > budget
    assert elapsed < 1.0
    announce(capsys, 1, "tradeoff staircase with both anchor points")


def test_criterion_02_combined_bound_theorem_suite(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(20260817)
    for _ in range(200):
        circ, noise, comp = helpers.random_instance(rng)
        assert circ.num_qubits <= 4
        assert len(circ.gates) <= 12
        assert 0.0 <= noise.strength <= 0.5
        report = certify_combined_bound(circ, noise, comp)
        assert report.bound_holds is True
        for rec in report.per_input:
            slack = report.p + report.alpha - (1.0 - rec.actual_success)
            assert slack >= -1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(capsys, 2, "combined failure bound on 200 random noisy instances")


def test_criterion_03_alpha_zero_reduction(capsys):
    rng = np.random.default_rng(20260817)  # same instance stream as criterion 2
    for _ in range(200):
        circ, _, comp = helpers.random_instance(rng)
        report = certify_combined_bound(circ, NoiseModel(kind="none"), comp)
        assert report.alpha <= 1e-9
        for rec in report.per_input:
            assert 1.0 - rec.actual_success <= report.p + 1e-9
    announce(capsys, 3, "noiseless runs reduce to the ideal failure bound")


def test_criterion_04_analytic_depolarizing_match(capsys):
    comp = identity_parity()
    circ = Circuit(num_qubits=1, gates=[Gate(name="I", targets=(0,))])
    for lam in (0.1, 0.2, 0.3, 0.5):
        report = certify_combined_bound(
            circ, NoiseModel(kind="depolarizing", strength=lam), comp
        )
        # closed forms: alpha = lam (trace distance to the partly mixed state),
        # failure = lam/2 (uniform leak into the wrong basis outcome)
        assert report.alpha == pytest.approx(lam, abs=1e-9)
        for rec in report.per_input:
            assert 1.0 - rec.actual_success == pytest.approx(lam / 2.0, abs=1e-9)
    announce(capsys, 4, "depolarizing alpha and failure match closed forms")


def test_criterion_05_mixture_saturation(capsys):
    ideal = DensityMatrix([[1, 0], [0, 0]])
    orthogonal = DensityMatrix([[0, 0], [0, 1]])
    for eps in (0.01, 0.05, 0.25):
        check = mixing_inaccuracy_bound_check(ideal, orthogonal, eps)
        assert check.measured == pytest.approx(2.0 * eps, abs=1e-12)
        assert check.holds is True
        # non-orthogonal error states stay strictly inside the ceiling
        plus = DensityMatrix(np.full((2, 2), 0.5))
        softer = mixing_inaccuracy_bound_check(ideal, plus, eps)
        assert softer.measured < 2.0 * eps - 1e-15
        assert softer.holds is True
    announce(capsys, 5, "orthogonal mixtures saturate the 2-epsilon ceiling")


def test_criterion_06_scaling_law_properties(capsys):
    # fixed point, exact in log-space
    for eth in (1e-4, 2.5e-9, 0.37):
        for levels in (1, 3, 17):
            value = logical_gate_error(eth, eth, levels)
            assert abs(math.log(value) - math.log(eth)) <= 1e-15
    # strict monotonicity in N on both sides of the threshold
    below = [logical_gate_error(1e-5, 1e-4, n) for n in range(5)]
    assert all(b < a for a, b in zip(below, below[1:]))
    above = [logical_gate_error(1e-3, 1e-4, n) for n in range(5)]
    assert all(b > a for a, b in zip(above, above[1:]))
    # two-level evaluation against the independently written log-space oracle
    got = logical_gate_error(1e-5, 1e-4, 2)
    oracle = math.exp(math.log(1e-4) + 2.0 ** 2 * (math.log(1e-5) - math.log(1e-4)))
    assert oracle == 9.999999999999982e-09  # frozen oracle output
    assert abs(got - oracle) <= 1e-20 * oracle
    assert got == pytest.approx(1e-8, rel=2e-15)  # decimal target, float headroom
    announce(capsys, 6, "scaling-law fixed point, monotonicity, and 1e-8 anchor")


def test_criterion_07_planner_minimality_sweep(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(10 ** 4):
        eth = float(10.0 ** -rng.uniform(1, 12))
        eps0 = eth * float(10.0 ** -rng.uniform(0.001, 8))
        gates = int(10.0 ** rng.uniform(0, 15))
        p = float(rng.uniform(0.0, 0.9))
        p_hat = float(rng.uniform(p + 1e-9, 1.0))
        result = required_levels(
            FtParams(eps0=eps0, eps_th=eth, gate_count=gates, p=p, p_hat=p_hat)
        )
        limit = result.budget * (1 + FEASIBILITY_SLACK)
        assert result.eps_qc <= limit
        if result.levels > 0:
            worse = circuit_failure(
                logical_gate_error(eps0, eth, result.levels - 1), gates
            )
            assert worse > limit
        cf = result.closed_form_levels
        projected = 0 if cf == -math.inf else max(0, math.ceil(cf))
        assert abs(result.levels - projected) <= 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(capsys, 7, "planner minimality over a 10^4-point parameter sweep")


def test_criterion_08_majority_vote_anchors(capsys):
    got = majority_success(0.15, 3)
    # rational cross-check in exact decimal arithmetic
    p = Fraction(15, 100)
    rational = 3 * (1 - p) ** 2 * p + (1 - p) ** 3
    assert rational == Fraction(93925, 100000)
    assert got == float(rational) == 0.93925
    assert min_repetitions(0.1, 0.99) == 5
    for k in range(1, 100, 2):
        assert majority_success(0.5, k) == pytest.approx(0.5, abs=1e-12)
    announce(capsys, 8, "majority-vote exact value, inverse, and coin-flip grid")


def test_criterion_09_norm_and_cptp_property_suite(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    checks = 0
    for _ in range(167):
        dim = int(rng.integers(2, 7))
        a = helpers.ginibre_density(dim, rng)
        b = helpers.ginibre_density(dim, rng)
        c = helpers.ginibre_density(dim, rng)
        d_ab = trace_norm(a - b)
        assert d_ab >= 0.0
        checks += 1
        assert d_ab <= trace_norm(a - c) + trace_norm(c - b) + 1e-10
        checks += 1
        assert d_ab <= 2.0 + 1e-10
        checks += 1
        u = helpers.haar_unitary(dim, rng)
        assert trace_norm(u @ (a - b) @ u.conj().T) == pytest.approx(d_ab, abs=1e-9)
        checks += 1
        kraus = helpers.random_cptp_kraus(dim, int(rng.integers(1, 4)), rng)
        fa = helpers.loop_apply(kraus, a)
        fb = helpers.loop_apply(kraus, b)
        assert trace_norm(fa - fb) <= d_ab + 1e-10
        checks += 1
        basis = helpers.haar_unitary(dim, rng)
        effects = [
            HermitianOperator(basis @ np.diag(row).astype(complex) @ basis.conj().T)
            for row in np.eye(dim)
        ]
        total = sum(effect_probability(DensityMatrix(a), e) for e in effects)
        assert total == pytest.approx(1.0, abs=1e-9)
        checks += 1
    elapsed = time.perf_counter() - started
    assert checks >= 1000
    assert elapsed < 30.0
    announce(capsys, 9, f"{checks} randomized norm/CPTP/POVM checks")


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, capsys):
    base = [sys.executable, "-m", "ftqc.cli"]

    verify_cfg = {
        "circuit": {"num_qubits": 1, "gates": [{"name": "H", "targets": [0]}]},
        "computation": {
            "inputs": ["0", "1"],
            "outputs": ["0", "1"],
            "truth_table": {"0": "0", "1": "1"},
            "povm": "computational_basis",
        },
        "noise": {"kind": "depolarizing", "strength": 0.2},
        "random_search_trials": 25,
    }
    verify_path = tmp_path / "verify.json"
    verify_path.write_text(json.dumps(verify_cfg))
    tradeoff_cfg = dict(CAPTION, eps0_min=1e-13, eps0_max=1e-9, points=25, p_hat=0.4)
    tradeoff_path = tmp_path / "tradeoff.json"
    tradeoff_path.write_text(json.dumps(tradeoff_cfg))

    def run_twice(argv):
        first = subprocess.run(base + argv, capture_output=True, timeout=120)
        second = subprocess.run(base + argv, capture_output=True, timeout=120)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout  # byte-identical
        return first.stdout

    out_json = run_twice(["verify", "--config", str(verify_path), "--seed", "42"])
    assert json.loads(out_json)["bound_holds"] is True
    out_csv = run_twice(["tradeoff", "--config", str(tradeoff_path), "--format", "csv"])
    assert out_csv.startswith(b"eps0,levels,eps_qc,closed_form\n")

    # exit-code contract: 0 success, 1 domain error, 2 config error
    plan_cfg = tmp_path / "plan.json"
    plan_cfg.write_text(
        json.dumps(dict(CAPTION, eps0=1e-10, p_hat=0.4))
    )
    ok = subprocess.run(base + ["plan", "--config", str(plan_cfg)], capture_output=True)
    assert ok.returncode == 0

    vote_cfg = tmp_path / "vote.json"
    vote_cfg.write_text(json.dumps({"p_prime": 0.6, "target": 0.9}))
    domain = subprocess.run(base + ["vote", "--config", str(vote_cfg)], capture_output=True)
    assert domain.returncode == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{this is not json")
    config = subprocess.run(base + ["plan", "--config", str(broken)], capture_output=True)
    assert config.returncode == 2

    announce(capsys, 10, "byte-identical reruns and the 0/1/2 exit contract")
