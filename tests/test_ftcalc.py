import copy
import dataclasses
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ftqc import (
    FtParams,
    circuit_failure,
    cli,
    epsilon_budget,
    ftcalc,
    logical_gate_error,
    max_gate_error,
    required_alpha,
    required_levels,
    tradeoff_curve,
)
from ftqc.errors import (
    AboveThresholdError,
    BadProbabilityError,
    DomainError,
    FtqcError,
    InfeasibleError,
)
from ftqc.ftcalc import FEASIBILITY_SLACK, LEVEL_CAP, TradeoffPoint

CAPTION = dict(eps_th=1e-9, gate_count=10 ** 12, p=0.2, p_hat=0.4)


def plan(eps0, **overrides):
    params = dict(CAPTION, **overrides)
    return required_levels(FtParams(eps0=eps0, **params))


def bisect_max_eps0(levels, eps_th, gate_count, budget):
    """Independent inversion oracle: largest feasible eps0 by log-space bisection."""

    def feasible(eps0):
        return circuit_failure(logical_gate_error(eps0, eps_th, levels), gate_count) <= budget

    lo, hi = math.log(1e-30), math.log(eps_th)
    if feasible(eps_th):
        return eps_th
    assert feasible(math.exp(lo))
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if feasible(math.exp(mid)):
            lo = mid
        else:
            hi = mid
    return math.exp(lo)


class TestBudgets:
    def test_alpha_from_caption_values(self):
        assert required_alpha(0.4, 0.2) == pytest.approx(0.2, rel=1e-12)

    def test_alpha_full_range(self):
        assert required_alpha(1.0, 0.0) == 1.0

    def test_alpha_zero_budget_infeasible(self):
        with pytest.raises(InfeasibleError):
            required_alpha(0.3, 0.3)

    def test_budget_from_caption_values(self):
        assert epsilon_budget(0.4, 0.2) == pytest.approx(0.1, rel=1e-12)

    def test_budget_full_range(self):
        assert epsilon_budget(1.0, 0.0) == 0.5

    def test_budget_thin_margin(self):
        assert epsilon_budget(0.21, 0.2) == pytest.approx(0.005, rel=1e-9)

    def test_budget_infeasible_when_reversed(self):
        with pytest.raises(InfeasibleError):
            epsilon_budget(0.2, 0.4)

    def test_budget_that_rounds_to_zero_is_refused(self):
        # p_hat - p = 5e-324, so the budget rounds to 0, which no division
        # or logarithm of any planner entry point may see
        kw = dict(eps_th=0.1, gate_count=1, p=0.0, p_hat=5e-324)
        calls = [
            lambda: epsilon_budget(5e-324, 0.0),
            lambda: required_levels(FtParams(eps0=1e-5, **kw)),
            lambda: max_gate_error(2, **kw),
            lambda: tradeoff_curve(1e-5, 1e-3, 3, **kw),
        ]
        for call in calls:
            with pytest.raises(InfeasibleError, match=r"budget \(p_hat - p\) / 2 rounds to 0 at p_hat 5e-324, p 0.0"):
                call()

    def test_checked_params_are_not_checked_again(self, monkeypatch):
        # FtParams runs the p < p_hat rule; planning from it runs the rule no more
        prm, calls = FtParams(eps0=1e-10, **CAPTION), []
        want = (epsilon_budget(0.4, 0.2), required_alpha(0.4, 0.2))
        monkeypatch.setattr(ftcalc, "required_alpha", lambda p_hat, p: calls.append(p) or required_alpha(p_hat, p))
        result = required_levels(prm)
        assert calls == [] and (result.budget, result.alpha_required) == want
        tradeoff_curve(1e-12, 1e-10, 3, **CAPTION)
        assert len(calls) == 1  # the curve's own FtParams


class TestLogicalGateError:
    def test_zero_levels_is_identity(self):
        assert logical_gate_error(1e-5, 1e-4, 0) == 1e-5
        assert logical_gate_error(3.7e-7, 1e-4, 0) == 3.7e-7

    def test_threshold_is_fixed_point(self):
        for levels in (0, 1, 5, 20):
            assert logical_gate_error(2.5e-9, 2.5e-9, levels) == 2.5e-9

    def test_two_level_concatenation(self):
        # frozen from the log-space arithmetic oracle below; agreement is
        # bit-identical because both sides use the same canonical order
        got = logical_gate_error(1e-5, 1e-4, 2)
        assert got == 9.999999999999982e-09
        oracle = math.exp(math.log(1e-4) + 2.0 ** 2 * (math.log(1e-5) - math.log(1e-4)))
        assert got == oracle

    def test_deep_concatenation_flushes_to_zero(self):
        assert logical_gate_error(1e-10, 1e-9, 9) == 0.0

    def test_above_threshold_overflows_to_inf(self):
        assert logical_gate_error(0.5, 1e-9, 6) == math.inf

    @pytest.mark.parametrize("levels", [1024, 10 ** 6])
    def test_levels_past_float_exponent_range(self, levels):
        # 2.0 ** levels overflows from 1024 on; the value is already settled
        assert logical_gate_error(1e-10, 1e-9, levels) == 0.0
        assert logical_gate_error(0.5, 1e-9, levels) == math.inf
        assert logical_gate_error(1e-9, 1e-9, levels) == 1e-9
        # within one rounding of the threshold: either the logs differ and
        # the value has flushed by level 1023, or they round equal and every
        # level gives the same value
        for eth in (1e-300, 1e-9, 0.5):
            for e0 in (math.nextafter(eth, 0.0), math.nextafter(eth, 1.0)):
                got = logical_gate_error(e0, eth, levels)
                assert got == logical_gate_error(e0, eth, 1023)
                assert got in (0.0, math.inf) or got == logical_gate_error(e0, eth, 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            logical_gate_error(0.0, 1e-4, 1)
        with pytest.raises(DomainError):
            logical_gate_error(1e-5, 1.0, 1)
        with pytest.raises(DomainError):
            logical_gate_error(1e-5, 1e-4, -1)

    @pytest.mark.parametrize("levels", [-1, True, False, 1.0, 1.5])
    def test_levels_must_be_a_nonnegative_integer(self, levels):
        # a bool is not a level count, though bool subclasses int
        with pytest.raises(DomainError, match="levels must be a nonnegative integer"):
            logical_gate_error(1e-10, 1e-9, levels)
        with pytest.raises(DomainError, match="levels must be a nonnegative integer"):
            max_gate_error(levels, 1e-9, 10 ** 12, 0.4, 0.2)

    @given(st.integers(1, 8), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_strictly_decreasing_below_threshold(self, levels, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        eth = float(10.0 ** -rng.uniform(1, 12))
        e0 = eth * float(10.0 ** -rng.uniform(0.05, 3))
        lo = logical_gate_error(e0, eth, levels)
        hi = logical_gate_error(e0, eth, levels - 1)
        assert lo < hi or (lo == 0.0 and hi == 0.0)

    @given(st.integers(1, 6), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_strictly_increasing_above_threshold(self, levels, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        eth = float(10.0 ** -rng.uniform(4, 12))
        e0 = min(0.9, eth * float(10.0 ** rng.uniform(0.05, 2)))
        lo = logical_gate_error(e0, eth, levels - 1)
        hi = logical_gate_error(e0, eth, levels)
        assert hi > lo or (hi == math.inf and lo == math.inf)

    def test_monotone_in_eps0(self):
        values = [logical_gate_error(e0, 1e-4, 3) for e0 in (1e-7, 1e-6, 1e-5, 5e-5)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)


class TestCircuitFailure:
    def test_caption_regime(self):
        assert circuit_failure(1e-13, 10 ** 12) == pytest.approx(0.1, rel=1e-12)

    def test_zero_error(self):
        assert circuit_failure(0.0, 10 ** 9) == 0.0

    def test_clamped_at_one(self):
        assert circuit_failure(1e-3, 10 ** 4) == 1.0
        assert circuit_failure(math.inf, 10) == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            circuit_failure(-1e-9, 10)
        with pytest.raises(DomainError):
            circuit_failure(1e-9, 0)

    @pytest.mark.parametrize("gate_count", [math.nan, 1.5, 2.0, True])
    def test_gate_count_must_be_a_positive_integer(self, gate_count):
        with pytest.raises(DomainError, match="gate_count must be a positive integer"):
            circuit_failure(1e-9, gate_count)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: required_levels(FtParams(eps0=1e-10, eps_th=1e-9, gate_count=g, p=0.2, p_hat=0.4)),
        lambda g: tradeoff_curve(1e-13, 1e-9, 10, eps_th=1e-9, gate_count=g, p=0.2, p_hat=0.4),
        lambda g: max_gate_error(2, 1e-9, g, 0.4, 0.2),
        lambda g: circuit_failure(1e-9, g),
    ],
    ids=["required_levels", "tradeoff_curve", "max_gate_error", "circuit_failure"],
)
def test_gate_count_beyond_the_float_range_refused(call):
    call(int(sys.float_info.max))  # the largest float is a valid count
    with pytest.raises(DomainError, match="gate_count must not exceed the largest float"):
        call(10 ** 400)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda v: logical_gate_error(1e-10, 1e-9, v), "levels must be a nonnegative integer"),
        (lambda v: max_gate_error(v, 1e-9, 10 ** 12, 0.4, 0.2), "levels must be a nonnegative integer"),
        (lambda v: FtParams(eps0=1e-10, eps_th=1e-9, gate_count=v, p=0.2, p_hat=0.4),
         "gate_count must be a positive integer"),
        (lambda v: circuit_failure(1e-9, v), "gate_count must be a positive integer"),
    ],
    ids=["logical_gate_error", "max_gate_error", "FtParams", "circuit_failure"],
)
def test_refused_int_past_the_digit_limit_is_named_by_its_size(call, message):
    # str() of an int of more than 4300 digits raises ValueError
    with pytest.raises(DomainError, match=rf"^{message}, got -<16610-bit integer>$"):
        call(-(10 ** 5000))
    with pytest.raises(DomainError, match=rf"^{message}, got -3$"):
        call(-3)


class TestRequiredLevels:
    def test_caption_anchor_two_levels(self):
        result = plan(1e-10)
        assert result.levels == 2
        assert result.budget == pytest.approx(0.1, rel=1e-12)
        assert result.alpha_required == pytest.approx(0.2, rel=1e-12)
        assert result.closed_form_levels == pytest.approx(2.0, abs=1e-12)
        # minimality certificate, recomputed from the scaling law directly
        assert circuit_failure(logical_gate_error(1e-10, 1e-9, 2), 10 ** 12) <= result.budget * (1 + FEASIBILITY_SLACK)
        assert circuit_failure(logical_gate_error(1e-10, 1e-9, 1), 10 ** 12) > result.budget

    @pytest.mark.parametrize("eps0", [5e-324, 1e-320])
    def test_subnormal_eps0_reports_minus_inf_closed_form(self, eps0):
        # eps_th / eps0 overflows, so the estimate sits at its limit
        result = plan(eps0)
        assert (result.levels, result.closed_form_levels) == (0, -math.inf)
        row = tradeoff_curve(eps0, 1e-9, 4, **CAPTION)[0]
        assert (row.eps0, row.levels, row.closed_form) == (eps0, 0, -math.inf)

    def test_caption_anchor_one_level(self):
        result = plan(1e-11)
        assert result.levels == 1
        assert result.closed_form_levels == pytest.approx(1.0, abs=1e-12)
        assert circuit_failure(logical_gate_error(1e-11, 1e-9, 0), 10 ** 12) > result.budget

    def test_no_concatenation_needed(self):
        result = plan(1e-14)
        assert result.levels == 0
        assert result.eps_n == 1e-14
        assert result.eps_qc == pytest.approx(1e-2, rel=1e-12)

    def test_above_threshold_rejected(self):
        with pytest.raises(AboveThresholdError):
            plan(1e-8)

    def test_at_threshold_rejected_when_budget_missed(self):
        with pytest.raises(AboveThresholdError):
            plan(1e-9)

    def test_within_rounding_of_threshold_rejected(self):
        # a few ulps below eps_th the logarithms agree, so no level helps
        eps0 = 9.999999999999999e-10
        assert eps0 < 1e-9 and math.log(eps0) == math.log(1e-9)
        with pytest.raises(AboveThresholdError, match="within float rounding"):
            plan(eps0)

    def test_flushed_level_still_counts_the_gates(self, tmp_path, capsys):
        # eps_1 = 1e-303 flushes to 0, yet gate_count * eps_1 = 1e5 misses
        # the budget 0.1; level 2, with gate_count * eps_2 = 1e-295, is minimal
        kw = dict(eps_th=1e-3, gate_count=10 ** 308, p=0.2, p_hat=0.4)
        result = required_levels(FtParams(eps0=1e-153, **kw))
        assert (result.levels, result.eps_n) == (2, 0.0)
        assert result.eps_qc == pytest.approx(1e-295, rel=1e-9)
        rows = tradeoff_curve(1e-153, 2e-153, 3, **kw)
        assert rows[0][1:3] == (result.levels, result.eps_qc)
        assert [r.levels for r in rows] == [2, 2, 2] and all(0.0 < r.eps_qc < 1e-290 for r in rows)
        cfg = tmp_path / "plan.json"
        cfg.write_text('{"eps0": 1e-153, "eps_th": 1e-3, "gate_count": 1e308, "p": 0.2, "p_hat": 0.4}')
        assert cli.main(["plan", "--config", str(cfg), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[:3] == ["2", "0", "1e-295"]

    def test_at_threshold_fine_when_level_zero_suffices(self):
        result = required_levels(
            FtParams(eps0=1e-9, eps_th=1e-9, gate_count=100, p=0.2, p_hat=0.4)
        )
        assert result.levels == 0

    def test_infeasible_params_rejected_with_stable_message(self):
        with pytest.raises(InfeasibleError, match="infeasible: p_hat must exceed p"):
            FtParams(eps0=1e-10, eps_th=1e-9, gate_count=10, p=0.4, p_hat=0.4)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            FtParams(eps0=0.0, eps_th=1e-9, gate_count=10, p=0.2, p_hat=0.4)
        with pytest.raises(DomainError):
            FtParams(eps0=1e-10, eps_th=1e-9, gate_count=0, p=0.2, p_hat=0.4)
        with pytest.raises(DomainError):
            FtParams(eps0=1e-10, eps_th=1e-9, gate_count=10, p=-0.1, p_hat=0.4)
        with pytest.raises(DomainError):
            FtParams(eps0=1e-10, eps_th=1e-9, gate_count=10, p=0.2, p_hat=1.5)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_minimality_and_agreement_properties(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        eth = float(10.0 ** -rng.uniform(2, 12))
        eps0 = eth * float(10.0 ** -rng.uniform(0.01, 6))
        gate_count = int(10 ** rng.uniform(0, 14))
        p = float(rng.uniform(0.0, 0.8))
        p_hat = float(rng.uniform(p + 1e-6, 1.0))
        params = FtParams(eps0=eps0, eps_th=eth, gate_count=gate_count, p=p, p_hat=p_hat)
        result = required_levels(params)
        limit = result.budget * (1 + FEASIBILITY_SLACK)
        assert result.eps_qc <= limit
        if result.levels > 0:
            prev = circuit_failure(
                logical_gate_error(eps0, eth, result.levels - 1), gate_count
            )
            assert prev > limit
        cf = result.closed_form_levels
        if math.isfinite(cf):
            assert abs(result.levels - max(0, math.ceil(cf))) <= 1
        assert result.levels <= LEVEL_CAP


class TestValueTypes:
    FIELDS = dict(eps0=1e-10, eps_th=1e-9, gate_count=10, p=0.2, p_hat=0.4)

    def test_params_print_compare_and_hash_by_their_fields(self):
        prm = FtParams(**self.FIELDS)
        assert repr(prm) == "FtParams(eps0=1e-10, eps_th=1e-09, gate_count=10, p=0.2, p_hat=0.4)"
        # each field is stored as its check returns it
        assert repr(FtParams(1e-10, 1e-9, 10, 0, 1)) == (
            "FtParams(eps0=1e-10, eps_th=1e-09, gate_count=10, p=0.0, p_hat=1.0)")
        same = FtParams(**self.FIELDS)
        assert prm == same and not prm != same and hash(prm) == hash(same)
        assert hash(prm) == hash((1e-10, 1e-9, 10, 0.2, 0.4))
        assert prm != FtParams(**dict(self.FIELDS, gate_count=11))
        assert prm != (1e-10, 1e-9, 10, 0.2, 0.4) and len({prm, same}) == 1

    @pytest.mark.parametrize("name", list(FIELDS) + ["other"])
    def test_params_fields_cannot_be_assigned_or_deleted(self, name):
        prm = FtParams(**self.FIELDS)
        with pytest.raises(AttributeError):
            setattr(prm, name, 0.3)
        with pytest.raises(AttributeError):
            delattr(prm, name)
        assert prm == FtParams(**self.FIELDS)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda prm: pickle.loads(pickle.dumps(prm)),
    ])
    def test_params_copy_and_pickle_to_an_equal_value(self, clone):
        prm = FtParams(**self.FIELDS)
        twin = clone(prm)
        assert type(twin) is FtParams and twin == prm and repr(twin) == repr(prm)
        with pytest.raises(AttributeError):
            twin.p = 0.1

    @pytest.mark.parametrize("field, value, error", [
        ("eps0", 0.0, BadProbabilityError),
        ("eps0", "x", BadProbabilityError),
        ("eps_th", 1.0, BadProbabilityError),
        ("gate_count", 0, DomainError),
        ("gate_count", 10.0, DomainError),
        ("gate_count", True, DomainError),
        ("gate_count", 10 ** 309, DomainError),
        ("p", -0.1, BadProbabilityError),
        ("p", math.nan, BadProbabilityError),
        ("p_hat", 1.5, BadProbabilityError),
        ("p_hat", 0.2, InfeasibleError),
    ])
    def test_params_refuse_every_bad_field(self, field, value, error):
        with pytest.raises(error) as info:
            FtParams(**dict(self.FIELDS, **{field: value}))
        assert type(info.value) is error

    def test_plan_result_keeps_the_dataclass_interface(self):
        # the benchmark's injected faults build wrong rows with dataclasses.replace
        result = plan(1e-10)
        assert isinstance(result, tuple)
        assert [f.name for f in dataclasses.fields(result)] == list(result._fields) == [
            "levels", "eps_n", "eps_qc", "budget", "alpha_required", "closed_form_levels"]
        assert dataclasses.fields(result) == dataclasses.fields(type(result))
        assert dataclasses.asdict(result) == result._asdict()
        wrong = dataclasses.replace(result, levels=result.levels + 1)
        assert type(wrong) is type(result) and wrong == result._replace(levels=result.levels + 1)
        assert dataclasses.is_dataclass(result)


class TestMaxGateError:
    def test_caption_inversion(self):
        # frozen from the bisection oracle; the algebraic closed form and the
        # oracle agree to float precision at the level-2 boundary
        got = max_gate_error(2, 1e-9, 10 ** 12, 0.4, 0.2)
        assert got == 9.999999999999996e-11
        oracle = bisect_max_eps0(2, 1e-9, 10 ** 12, 0.1)
        assert got == pytest.approx(oracle, rel=1e-9)

    def test_level_zero_is_budget_per_gate(self):
        got = max_gate_error(0, 1e-9, 10 ** 12, 0.4, 0.2)
        assert got == epsilon_budget(0.4, 0.2) / 10 ** 12

    def test_clamped_at_threshold(self):
        # budget 0.2 >= gate_count * eps_th = 1e-7, so the cap is the threshold
        assert max_gate_error(3, 1e-9, 100, 0.6, 0.2) == 1e-9

    def test_never_above_threshold(self):
        # from level 53 on, the caption's log-space root rounds one ulp past eps_th
        assert max_gate_error(53, 1e-9, 10 ** 12, 0.4, 0.2) == 1e-9
        assert all(max_gate_error(n, 1e-9, 10 ** 12, 0.4, 0.2) <= 1e-9 for n in range(40, 1100))

    def test_round_trip_never_needs_more_levels(self):
        # up to level 19; from level 20 on, the few ulps of error in eps0 can
        # move the failure past the feasibility slack, and a plan needs one more
        rng = random.Random(38)
        budgets = [CAPTION]
        while len(budgets) < 200:
            p, p_hat = sorted((rng.random(), rng.random()))
            if p < p_hat:
                budgets.append(dict(eps_th=10.0 ** rng.uniform(-12.0, math.log10(0.5)),
                                    gate_count=int(10.0 ** rng.uniform(0.0, 15.0)), p=p, p_hat=p_hat))
        for kw in budgets:
            for levels in range(20):
                eps0 = max_gate_error(levels, **kw)
                if eps0 < kw["eps_th"]:
                    assert required_levels(FtParams(eps0=eps0, **kw)).levels <= levels, (kw, levels)

    def test_monotone_in_levels(self):
        values = [max_gate_error(n, 1e-9, 10 ** 12, 0.4, 0.2) for n in range(6)]
        # deeper concatenation tolerates worse elementary gates
        assert values == sorted(values)

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleError):
            max_gate_error(2, 1e-9, 10 ** 12, 0.2, 0.4)

    @pytest.mark.parametrize(
        "p, p_hat", [(math.nan, 0.4), (0.2, math.nan), (-0.5, 0.4), (0.2, 7.0), (1.0, 1.0), (0.0, 0.0)]
    )
    def test_probabilities_range_checked_like_the_forward_query(self, p, p_hat):
        with pytest.raises(BadProbabilityError) as forward:
            FtParams(eps0=1e-10, eps_th=1e-9, gate_count=10 ** 12, p=p, p_hat=p_hat)
        with pytest.raises(BadProbabilityError) as inverse:
            max_gate_error(2, 1e-9, 10 ** 12, p_hat, p)
        assert str(inverse.value) == str(forward.value)

    @pytest.mark.parametrize("gate_count", [0, 1.5, math.nan])
    def test_gate_count_checked_like_the_forward_query(self, gate_count):
        with pytest.raises(DomainError) as forward:
            FtParams(eps0=1e-10, eps_th=1e-9, gate_count=gate_count, p=0.2, p_hat=0.4)
        with pytest.raises(DomainError) as inverse:
            max_gate_error(2, 1e-9, gate_count, 0.4, 0.2)
        assert str(inverse.value) == str(forward.value)


class TestTradeoffCurve:
    def test_caption_grid_anchors(self):
        curve = tradeoff_curve(1e-13, 1e-9, 40, **CAPTION)
        assert len(curve) == 40
        assert curve[20].eps0 == pytest.approx(1e-11, rel=1e-12)
        assert curve[20].levels == 1
        assert curve[30].eps0 == pytest.approx(1e-10, rel=1e-12)
        assert curve[30].levels == 2

    def test_staircase_monotonicity(self):
        curve = tradeoff_curve(1e-13, 1e-9, 40, **CAPTION)
        levels = [pt.levels for pt in curve]
        assert levels == sorted(levels)

    def test_all_easy_points_need_no_concatenation(self):
        curve = tradeoff_curve(1e-16, 1e-14, 10, **CAPTION)
        assert all(pt.levels == 0 for pt in curve)

    def test_two_point_grid(self):
        curve = tradeoff_curve(1e-11, 1e-10, 2, **CAPTION)
        assert len(curve) == 2
        assert curve[0].eps0 == pytest.approx(1e-11, rel=1e-12)
        assert curve[1].levels >= curve[0].levels

    def test_grid_within_rounding_of_threshold_marks_rows(self):
        curve = tradeoff_curve(9.999999999999999e-10, 1e-9, 3, **CAPTION)
        assert [r.levels for r in curve] == [-1, -1, -1]
        assert all(math.isnan(r.eps_qc) for r in curve)

    def test_grid_is_deterministic(self):
        for lo in (1e-13, 9.999999999999999e-10):
            a = tradeoff_curve(lo, 1e-9, 25, **CAPTION)
            b = tradeoff_curve(lo, 1e-9, 25, **CAPTION)
            assert a == b
        # the sentinel rows hold NaN and still compare equal
        assert all(math.isnan(r.eps_qc) for r in a)

    def test_point_is_an_immutable_named_tuple(self):
        import dataclasses

        assert TradeoffPoint._fields == ("eps0", "levels", "eps_qc", "closed_form")
        row = TradeoffPoint(1e-10, 2, 0.1, 2.0)
        assert isinstance(row, tuple) and tuple(row) == (1e-10, 2, 0.1, 2.0)
        assert (row.eps0, row.levels, row.eps_qc, row.closed_form) == (1e-10, 2, 0.1, 2.0)
        with pytest.raises(AttributeError):
            row.levels = 3
        # the dataclass interface of the rows still works
        assert dataclasses.replace(row, levels=3) == TradeoffPoint(1e-10, 3, 0.1, 2.0)
        assert dataclasses.asdict(row) == row._asdict()
        assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(row))

    def test_max_above_threshold_rejected(self):
        with pytest.raises(AboveThresholdError):
            tradeoff_curve(1e-13, 2e-9, 10, **CAPTION)

    def test_max_at_threshold_allowed(self):
        # the right endpoint is excluded, so a grid up to the threshold is valid
        curve = tradeoff_curve(1e-13, 1e-9, 10, **CAPTION)
        assert all(pt.eps0 < CAPTION["eps_th"] for pt in curve)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            tradeoff_curve(1e-10, 1e-11, 10, **CAPTION)
        with pytest.raises(DomainError):
            tradeoff_curve(0.0, 1e-10, 10, **CAPTION)
        with pytest.raises(DomainError):
            tradeoff_curve(1e-13, 1e-10, 1, **CAPTION)

    def test_point_cap_refused_before_the_grid(self):
        with pytest.raises(DomainError, match="exceeds the cap of 100000"):
            tradeoff_curve(1e-13, 1e-9, 10 ** 15, **CAPTION)

    def test_resume_restarts_at_threshold_and_after_a_dip(self, monkeypatch):
        # the grid can round a point onto the threshold, or below the point
        # before it, when eps0_min and eps0_max are a few ulps apart; which
        # points it does that to depends on the platform's libm, so the
        # grid is pinned here: a deep level, the threshold (level 0 misses
        # the budget, so -1), then two points each below their predecessor
        eps_th = 1e-3
        grid = [eps_th * (1 - 1e-6), eps_th, eps_th * (1 - 1e-9), eps_th * (1 - 1e-3)]
        monkeypatch.setattr(ftcalc, "_log_grid", lambda *args: list(grid))
        kw = dict(eps_th=eps_th, gate_count=10 ** 4, p=0.2, p_hat=0.4)
        rows = [_row_key(r) for r in tradeoff_curve(grid[0], eps_th, len(grid), **kw)]
        assert rows == _per_point_curve(grid[0], eps_th, len(grid), **kw)
        levels = [r[1] for r in rows]
        assert levels[1] == -1
        assert levels[2] > levels[0] > levels[3] > 0

    def test_matches_per_point_on_a_ten_level_grid(self):
        # 500 points from 1e-4 * eps_th up to eps_th with
        # gate_count * eps_th / budget = 1e8: the staircase climbs 1 to 10;
        # the seeded cases draw eps_th, p and the budget as the benchmark does
        cases = [(3e-3, 0.1, 0.04)]
        for seed in range(1, 6):
            rng = random.Random(seed)
            cases.append((10 ** rng.uniform(-4, -2), rng.uniform(0.0, 0.3), rng.uniform(0.005, 0.1)))
        for eps_th, p, budget in cases:
            kw = dict(eps_th=eps_th, gate_count=round(1e8 * budget / eps_th), p=p, p_hat=p + 2 * budget)
            rows = _check_against_per_point(eps_th * 1e-4, kw)
            assert sorted({r[1] for r in rows}) == list(range(1, 11))
            assert not _flushed(rows, eps_th)
        # at gate_count = 10**250 most minimal levels have eps_N below 1e-300,
        # so their failure comes from the logarithms
        rows = _check_against_per_point(1e-290, dict(eps_th=1e-3, gate_count=10 ** 250, p=0.2, p_hat=0.4))
        assert sorted({r[1] for r in rows}) == list(range(10))
        assert len(_flushed(rows, 1e-3)) > 300  # 346 of the 500 on glibc

    def test_search_continues_above_a_failed_carried_level(self, monkeypatch):
        # each pinned point needs several levels more than the one before,
        # so the single test at the carried-over level fails and the search
        # goes on from the next level up
        eps_th = 1e-3
        grid = [eps_th * 1e-6, eps_th * 0.5, eps_th * 0.99]
        monkeypatch.setattr(ftcalc, "_log_grid", lambda *args: list(grid))
        starts = []
        search = ftcalc._min_level

        def spy(eps0, eps_th, gate_count, budget, start):
            starts.append(start)
            return search(eps0, eps_th, gate_count, budget, start)

        monkeypatch.setattr(ftcalc, "_min_level", spy)
        kw = dict(eps_th=eps_th, gate_count=round(1e8 * 0.1 / eps_th), p=0.2, p_hat=0.4)
        rows = [_row_key(r) for r in tradeoff_curve(grid[0], eps_th, len(grid), **kw)]
        assert [r[1] for r in rows] == [1, 5, 11]
        assert starts == [1, 2, 6]
        assert rows == _per_point_curve(grid[0], eps_th, len(grid), **kw)

    @pytest.mark.parametrize("hi", [1e-300, 1e-9, 1e-3, 0.5, math.nextafter(1.0, 0.0)])
    def test_grid_excludes_right_endpoint_one_ulp_away(self, hi):
        # the logarithms of endpoints one ulp apart can round to one value,
        # which put every point after the first on hi before the clamp
        lo = math.nextafter(hi, 0.0)
        grid = ftcalc._log_grid(lo, hi, 6)
        assert grid[0] == lo and len(grid) == 6
        assert all(x < hi and math.isclose(x, hi, rel_tol=1e-15) for x in grid)
        rows = tradeoff_curve(lo, hi, 6, eps_th=hi, gate_count=10, p=0.2, p_hat=0.4)
        assert [r.eps0 for r in rows] == grid

    def test_grid_follows_geomspace(self):
        # the grid is numpy.geomspace's recipe in Python floats: libm and
        # numpy's SIMD log10 and power round differently in the last bit
        import numpy as np

        rng = np.random.default_rng(11)
        for _ in range(5000):
            hi = 10.0 ** rng.uniform(-12.0, -0.3)
            # one draw in ten has the endpoints one ulp apart
            lo = math.nextafter(hi, 0.0) if rng.random() < 0.1 else hi * 10.0 ** -rng.uniform(0.0, 8.0)
            points = int(rng.integers(2, 301))
            grid = ftcalc._log_grid(lo, hi, points)
            want = np.geomspace(lo, hi, points, endpoint=False)
            assert len(grid) == points
            assert grid[0] == lo
            assert all(type(x) is float for x in grid)
            assert all(0.0 < x < hi for x in grid)
            np.testing.assert_allclose(grid, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("points", [2, 300])
    @pytest.mark.parametrize("lo, hi", [(5e-324, math.nextafter(1.0, 0.0)), (5e-324, 1e-9)])
    def test_grid_stays_inside_the_open_interval_at_the_float_extremes(self, lo, hi, points):
        # tradeoff_curve relies on this: every point is a valid eps0 below eps0_max
        grid = ftcalc._log_grid(lo, hi, points)
        assert len(grid) == points and grid[0] == lo
        assert all(type(x) is float and 0.0 < x < hi for x in grid)

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_matches_per_point_required_levels(self, data):
        eps_th = 10.0 ** data.draw(st.floats(-12.0, -0.3), label="log10 eps_th")
        eps0_max = data.draw(
            st.one_of(st.just(eps_th), st.floats(0.0, 4.0).map(lambda u: eps_th * 10.0 ** -u)),
            label="eps0_max",
        )
        span = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 8.0)), label="log10 span")
        eps0_min = min(eps0_max * 10.0 ** -span, math.nextafter(eps0_max, 0.0))
        points = data.draw(st.integers(2, 300), label="points")
        p = data.draw(st.floats(0.0, 0.8), label="p")
        p_hat = data.draw(st.floats(p, 1.0), label="p_hat")
        # gate_count * eps_th / budget = 10**load, so most grids need concatenation
        load = data.draw(st.floats(-2.0, 14.0), label="log10 load")
        gate_count = max(1, int(10.0 ** load * max(p_hat - p, 1e-3) / 2.0 / eps_th))
        kw = dict(eps_th=eps_th, gate_count=gate_count, p=p, p_hat=p_hat)
        try:
            want = _per_point_curve(eps0_min, eps0_max, points, **kw)
        except FtqcError as exc:
            with pytest.raises(type(exc)) as got:
                tradeoff_curve(eps0_min, eps0_max, points, **kw)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        curve = tradeoff_curve(eps0_min, eps0_max, points, **kw)
        assert [_row_key(r) for r in curve] == want
        assert all(type(r) is TradeoffPoint for r in curve)


def _row_key(row):
    """A TradeoffPoint as a tuple in which NaN compares equal to NaN."""
    return tuple("nan" if v != v else v for v in (row.eps0, row.levels, row.eps_qc, row.closed_form))


def _check_against_per_point(lo, kw):
    """A 500-point curve from lo up to eps_th as row keys, checked row by row
    against _per_point_curve and for a positive eps_qc within the budget."""
    rows = [_row_key(r) for r in tradeoff_curve(lo, kw["eps_th"], 500, **kw)]
    assert rows == _per_point_curve(lo, kw["eps_th"], 500, **kw)
    limit = epsilon_budget(kw["p_hat"], kw["p"]) * (1 + FEASIBILITY_SLACK)
    assert all(0.0 < r[2] <= limit for r in rows)
    return rows


def _flushed(rows, eps_th):
    """The rows whose minimal level has an eps_N that flushes to 0."""
    return [r for r in rows if r[1] > 0 and logical_gate_error(r[0], eps_th, r[1]) == 0.0]


def _per_point_curve(eps0_min, eps0_max, points, **kw):
    """The curve from one independent required_levels call per grid point."""
    rows = []
    for e0 in ftcalc._log_grid(eps0_min, eps0_max, points):
        try:
            r = required_levels(FtParams(eps0=e0, **kw))
        except AboveThresholdError:
            rows.append(_row_key(TradeoffPoint(e0, -1, math.nan, math.nan)))
        else:
            rows.append(_row_key(TradeoffPoint(e0, r.levels, r.eps_qc, r.closed_form_levels)))
    return rows


@pytest.fixture(scope="module")
def exact_cases():
    """Seeded planner draws with their exact decisions (helpers.exact_plan):
    eps_th log-uniform in [1e-6, 0.5], gate_count log-uniform up to 1e15 and
    p < p_hat uniform.  Every other draw puts eps0 uniform below eps_th; the
    rest put it on a level boundary, at max_gate_error's value for a level L
    in 1..8 (L None for the former).  Each case is (kw, L, exact level, log ratios)."""
    rng = random.Random(22)
    cases = []
    while len(cases) < 1000:
        p, p_hat = sorted((rng.random(), rng.random()))
        eps_th = 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        kw = dict(eps_th=eps_th, gate_count=int(10.0 ** rng.uniform(0.0, 15.0)), p=p, p_hat=p_hat)
        level = rng.randint(1, 8) if len(cases) % 2 else None
        eps0 = eps_th * rng.random() if level is None else max_gate_error(level, **kw)
        if p < p_hat and 0.0 < eps0 < eps_th:
            cases.append((dict(kw, eps0=eps0), level, *helpers.exact_plan(**kw, eps0=eps0)))
    return cases


class TestExactPlanner:
    """Which side of the truth the float planner falls on, against the
    80-digit decimal planner: never above the exact minimal level, and one
    below it only where the exact failure there is within FEASIBILITY_SLACK
    of the budget."""

    @staticmethod
    def assert_on_the_optimistic_side(levels, exact, ratios):
        assert levels <= exact
        if levels < exact:
            assert levels == exact - 1 and ratios[levels] <= math.log1p(FEASIBILITY_SLACK)

    def test_required_levels(self, exact_cases):
        fewer = 0
        for kw, _, exact, ratios in exact_cases:
            levels = required_levels(FtParams(**kw)).levels
            self.assert_on_the_optimistic_side(levels, exact, ratios)
            fewer += levels < exact
        assert fewer > 100  # the boundary draws do reach the slack

    def test_max_gate_error_overshoots_the_budget_by_at_most_2_to_the_level_times_8e_15(self, exact_cases):
        # planning at max_gate_error(L) gives L in floats, but the exact
        # failure at L can lie past the budget: eps0's few ulps, raised to 2**L
        overshoot = [(float(ratios[level]), level) for _, level, _, ratios in exact_cases if level]
        assert max(r / 2.0 ** level for r, level in overshoot) <= 8e-15
        assert max(r for r, _ in overshoot) > 1e-13

    def test_tradeoff_rows(self):
        rng = random.Random(23)
        for _ in range(8):
            p, p_hat = sorted(rng.uniform(0.0, 0.5) for _ in range(2))
            kw = dict(eps_th=10.0 ** rng.uniform(-6.0, math.log10(0.5)),
                      gate_count=int(10.0 ** rng.uniform(0.0, 15.0)), p=p, p_hat=p_hat)
            for row in tradeoff_curve(kw["eps_th"] * 1e-4, kw["eps_th"], 50, **kw):
                if row.levels >= 0:
                    self.assert_on_the_optimistic_side(row.levels, *helpers.exact_plan(row.eps0, **kw))
