import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftqc import (
    FtParams,
    circuit_failure,
    epsilon_budget,
    logical_gate_error,
    max_gate_error,
    required_alpha,
    required_levels,
    tradeoff_curve,
)
from ftqc.errors import (
    AboveThresholdError,
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

    def test_round_trip_never_needs_more_levels(self):
        for levels in (0, 1, 2, 3, 5):
            eps0 = max_gate_error(levels, **{k: CAPTION[k] for k in ("eps_th", "gate_count")}, p_hat=0.4, p=0.2)
            if eps0 >= CAPTION["eps_th"]:
                continue
            result = plan(eps0)
            assert result.levels <= levels

    def test_monotone_in_levels(self):
        values = [max_gate_error(n, 1e-9, 10 ** 12, 0.4, 0.2) for n in range(6)]
        # deeper concatenation tolerates worse elementary gates
        assert values == sorted(values)

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleError):
            max_gate_error(2, 1e-9, 10 ** 12, 0.2, 0.4)


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
        a = tradeoff_curve(1e-13, 1e-9, 25, **CAPTION)
        b = tradeoff_curve(1e-13, 1e-9, 25, **CAPTION)
        assert a == b

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
        # geomspace can round a point onto the threshold, or below the point
        # before it, when eps0_min and eps0_max are a few ulps apart; which
        # points it does that to depends on the platform's libm, so the
        # grid is pinned here: a deep level, the threshold (level 0 misses
        # the budget, so -1), then two points each below their predecessor
        import numpy as np

        eps_th = 1e-3
        grid = [eps_th * (1 - 1e-6), eps_th, eps_th * (1 - 1e-9), eps_th * (1 - 1e-3)]
        monkeypatch.setattr(np, "geomspace", lambda *args, **kwargs: np.array(grid))
        kw = dict(eps_th=eps_th, gate_count=10 ** 4, p=0.2, p_hat=0.4)
        rows = [_row_key(r) for r in tradeoff_curve(grid[0], eps_th, len(grid), **kw)]
        assert rows == _per_point_curve(grid[0], eps_th, len(grid), **kw)
        levels = [r[1] for r in rows]
        assert levels[1] == -1
        assert levels[2] > levels[0] > levels[3] > 0

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
        assert [_row_key(r) for r in tradeoff_curve(eps0_min, eps0_max, points, **kw)] == want


def _row_key(row):
    """A TradeoffPoint as a tuple in which NaN compares equal to NaN."""
    return tuple("nan" if v != v else v for v in (row.eps0, row.levels, row.eps_qc, row.closed_form))


def _per_point_curve(eps0_min, eps0_max, points, **kw):
    """The curve from one independent required_levels call per grid point."""
    import numpy as np

    rows = []
    for e0 in np.geomspace(eps0_min, eps0_max, points, endpoint=False).tolist():
        try:
            r = required_levels(FtParams(eps0=e0, **kw))
        except AboveThresholdError:
            rows.append(_row_key(TradeoffPoint(e0, -1, math.nan, math.nan)))
        else:
            rows.append(_row_key(TradeoffPoint(e0, r.levels, r.eps_qc, r.closed_form_levels)))
    return rows
