import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftqc
import helpers
from ftqc import majority_success, min_repetitions, vote
from ftqc.errors import (
    BadProbabilityError,
    CapExceededError,
    DomainError,
    EvenRepetitionsError,
    InfeasibleError,
)
from ftqc.vote import EXACT_K_LIMIT, REPETITION_CAP


# How far a windowed sum (k > EXACT_K_LIMIT) may lie from the exact success, on either side.
TAIL_ERROR = 1e-15


class TestMajoritySuccess:
    def test_perfect_runs_always_win(self):
        for k in (1, 3, 101):
            assert majority_success(0.0, k) == 1.0

    def test_coin_flip_stays_even(self):
        # an odd panel of fair coins has no tiebreak advantage
        for k in (1, 3, 63):
            assert majority_success(0.5, k) == 0.5
        assert majority_success(0.5, 99) == pytest.approx(0.5, abs=1e-12)

    def test_three_repetitions_exact_decimal(self):
        # frozen: 0.85^3 + 3*0.85^2*0.15 = 0.93925, dyadic arithmetic is exact
        assert majority_success(0.15, 3) == 0.93925

    def test_single_repetition_is_bare_success(self):
        assert majority_success(0.15, 1) == 0.85
        assert majority_success(0.3, 1) == 0.7

    def test_matches_rational_oracle_small_k(self):
        for p in (0.05, 0.15, 0.3, 0.45, 0.7):
            for k in (1, 3, 5, 21, 63):
                assert majority_success(p, k) == pytest.approx(
                    float(helpers.exact_majority_success(p, k)), abs=1e-14
                )

    def test_exact_path_rounds_like_the_fraction_conversion(self):
        # total / den**k is one correctly rounded int division, as is
        # float(Fraction(total, den**k)), the conversion it replaced: the
        # exact path is within half an ulp of the exact success
        rng = random.Random(5)
        draws = []
        for k in range(1, EXACT_K_LIMIT, 2):  # every odd k of the exact path
            draws += [(p, k) for p in (0.0, 5e-324, 2.0 ** -1022, 0.15, 0.5, math.nextafter(0.5, 0.0), 1.0)]
            draws += [(rng.random() if rng.random() < 0.5 else 10.0 ** -rng.uniform(0.0, 20.0), k)
                      for _ in range(150)]
        exact = [float(helpers.exact_majority_success(p, k)) for p, k in draws]
        assert [vote._majority_success_exact(p, k) for p, k in draws] == exact

    def test_exact_and_tail_paths_agree_at_seam(self):
        # k=63 uses integer arithmetic, k >= 65 the windowed log-space tail sum
        assert EXACT_K_LIMIT == 64
        for p in (0.1, 0.3, 0.49):
            below = majority_success(p, 63)
            assert below == pytest.approx(float(helpers.exact_majority_success(p, 63)), abs=1e-13)
            for k in (65, 101, 301):
                above = majority_success(p, k)
                assert above == pytest.approx(float(helpers.exact_majority_success(p, k)), abs=1e-13)
                assert above >= below - 1e-13  # more repetitions never hurt below 1/2

    def test_billion_repetitions_fast_and_accurate(self):
        # reference: the windowed sum in 35-digit arithmetic (mpmath)
        started = time.perf_counter()
        value = majority_success(0.5 - 1e-5, 10 ** 9 + 1)
        assert time.perf_counter() - started < 1.0
        assert value == pytest.approx(0.7364553717430277, abs=1e-11)

    def test_oversized_window_refused_before_allocating(self):
        import re
        import tracemalloc

        import numpy  # noqa: F401  (its import is not the allocation under test)

        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as exc:
                majority_success(0.15, 10 ** 13 + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 80 sd + 80 terms, sd = sqrt(k p' (1 - p')): about 9e7 terms, 720 MB
        got = re.fullmatch(
            r"k = 10000000000001 needs a window of (\d+) binomial terms \((\d+) bytes per array\), "
            r"above the cap of 16777216 terms",
            str(exc.value),
        )
        assert got, str(exc.value)
        terms, nbytes = int(got[1]), int(got[2])
        assert terms == pytest.approx(80 * (10 ** 13 * 0.15 * 0.85) ** 0.5 + 80, abs=2)
        assert nbytes == 8 * terms
        assert peak < 10 ** 6

    @pytest.mark.parametrize("p_prime, k", [(1e-12, 10 ** 17 + 1), (1e-300, 2 ** 53 + 1), (1e-300, 10 ** 300 + 1)])
    def test_k_past_2_53_refused(self, p_prime, k):
        # float64 stops holding every integer, so no window can be placed;
        # p' of 0 or 1 needs none
        with pytest.raises(DomainError, match=r"past 2\*\*53"):
            majority_success(p_prime, k)
        assert majority_success(0.0, k) == 1.0 and majority_success(1.0, k) == 0.0
        assert majority_success(p_prime, 2 ** 53 - 1) == 1.0

    def test_large_panel_nearly_certain(self):
        assert majority_success(0.4, 10 ** 4 + 1) > 0.999

    def test_rejects_even_repetitions(self):
        with pytest.raises(EvenRepetitionsError):
            majority_success(0.15, 4)

    def test_rejects_nonpositive_repetitions(self):
        with pytest.raises(DomainError):
            majority_success(0.15, 0)

    @pytest.mark.parametrize("k", [True, 3.0, 2.5])
    def test_rejects_bool_and_non_integer_repetitions(self, k):
        with pytest.raises(DomainError, match="repetitions must be a positive integer"):
            majority_success(0.15, k)

    def test_rejects_bad_probability(self):
        with pytest.raises(BadProbabilityError):
            majority_success(-0.1, 3)
        with pytest.raises(BadProbabilityError):
            majority_success(1.5, 3)

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_complement_symmetry(self, raw):
        p = raw / 400.0
        for k in (1, 5, 33, 101):
            total = majority_success(p, k) + majority_success(1.0 - p, k)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_nondecreasing_in_k_below_half(self):
        for p in (0.05, 0.25, 0.45):
            values = [majority_success(p, k) for k in range(1, 100, 2)]
            for a, b in zip(values, values[1:]):
                assert b >= a - 1e-13

    def test_windowed_sum_is_within_its_bound_of_the_exact_success(self):
        # on both sides of the truth: a window neither over- nor underestimates throughout
        rng = random.Random(22)
        gaps = []
        for _ in range(60):
            p, k = rng.uniform(0.01, 0.49), rng.randrange(EXACT_K_LIMIT + 1, 803, 2)
            gaps.append(Fraction(majority_success(p, k)) - helpers.exact_majority_success(p, k))
        assert max(map(abs, gaps)) <= TAIL_ERROR
        assert min(gaps) < 0 < max(gaps)


def _count_majority_calls(monkeypatch) -> list:
    """Replace vote.majority_success by a spy that records each call's k;
    each (p', k) is computed once, so repeated searches stay cheap."""
    calls, memo, real = [], {}, vote.majority_success

    def spy(p_prime, k):
        calls.append(k)
        if (p_prime, k) not in memo:
            memo[p_prime, k] = real(p_prime, k)
        return memo[p_prime, k]

    monkeypatch.setattr(vote, "majority_success", spy)
    return calls


class TestMinRepetitions:
    def test_perfect_runs_need_one(self):
        assert min_repetitions(0.0, 0.99) == 1

    def test_ten_percent_error_to_99(self):
        # frozen: k=3 gives 0.972 < 0.99, k=5 gives 0.99144
        assert min_repetitions(0.1, 0.99) == 5
        assert majority_success(0.1, 3) == pytest.approx(0.972, abs=1e-12)
        assert majority_success(0.1, 5) == pytest.approx(0.99144, abs=1e-12)

    def test_fifteen_percent_error_to_90(self):
        assert min_repetitions(0.15, 0.9) == 3

    def test_minimality_certificate(self):
        cases = (
            (0.1, 0.99, 5),
            (0.3, 0.95, 17),
            (0.45, 0.9, 163),
            (0.3, 0.99999, 105),
            (0.485, 0.9, 1825),
        )
        for p, target, expected in cases:
            k = min_repetitions(p, target)
            assert k == expected
            assert majority_success(p, k) >= target
            if k > 1:
                assert majority_success(p, k - 2) < target

    def test_rejects_half_or_worse(self):
        with pytest.raises(InfeasibleError, match="is not below 1/2"):
            min_repetitions(0.5, 0.9)
        with pytest.raises(InfeasibleError):
            min_repetitions(0.6, 0.9)

    def test_rejects_bad_target(self):
        with pytest.raises(BadProbabilityError):
            min_repetitions(0.1, 0.0)
        with pytest.raises(BadProbabilityError):
            min_repetitions(0.1, 1.0)

    def test_matches_bisection_with_no_more_evaluations(self, monkeypatch):
        # doubling then plain bisection as the oracle: the same k, or the
        # same refusal, and never more evaluations
        calls = _count_majority_calls(monkeypatch)
        rng = random.Random(14)
        pairs = [(p, t) for p in (0.0, 5e-324, 0.4999) for t in (0.3, 0.52, 0.9, 0.999999, 1.0 - 1e-12)]
        while len(pairs) < 2000:
            u = rng.random()
            if u < 0.3:
                p = 0.5 - 10.0 ** -rng.uniform(1.3, 4.0)  # near 1/2
            elif u < 0.6:
                p = rng.uniform(0.0, 0.5)
            else:
                p = 0.5 * 10.0 ** -rng.uniform(0.0, 20.0)
            t = rng.random() if rng.random() < 0.5 else 1.0 - 10.0 ** -rng.uniform(0.3, 12.0)
            pairs.append((p, min(max(t, 1e-3), 1.0 - 1e-12)))
        refused = 0
        for p, t in pairs:
            calls.clear()
            try:
                want = helpers._bisect_min_repetitions(p, t)
            except CapExceededError as exc:
                want, refused = str(exc), refused + 1
            budget = len(calls)
            calls.clear()
            try:
                got = min_repetitions(p, t)
            except CapExceededError as exc:
                got = str(exc)
            assert got == want, (p, t)
            assert len(calls) <= budget, (p, t)
        assert refused >= 50

    def test_search_to_8001_takes_at_most_16_evaluations(self, monkeypatch):
        # 13 doubling steps to k = 8191, then at most 3 splits (bisection: 11)
        below, at = (majority_success(0.485, k) for k in (7999, 8001))
        calls = _count_majority_calls(monkeypatch)
        for u in (0.1, 0.5, 0.9):
            calls.clear()
            assert min_repetitions(0.485, below + u * (at - below)) == 8001
            assert len(calls) <= 16

    # the windowed evaluations after 63 for each u, first the estimate's probe
    PAST_63 = {
        4001: {0.1: [3999, 4039, 4001], 0.5: [4001, 3999], 0.9: [4001, 3999]},
        8001: dict.fromkeys((0.1, 0.5, 0.9), [8001, 7999]),
    }

    @pytest.mark.parametrize("k_star", [4001, 8001])
    def test_search_past_63_starts_at_its_estimate(self, monkeypatch, k_star):
        # the exact path's doubling to 63, then the Cornish-Fisher estimate:
        # at most 3 windowed evaluations (doubling from 63: 9 and 10)
        below, at = (majority_success(0.485, k) for k in (k_star - 2, k_star))
        calls = _count_majority_calls(monkeypatch)
        for u, past_63 in self.PAST_63[k_star].items():
            calls.clear()
            assert min_repetitions(0.485, below + u * (at - below)) == k_star
            assert calls == [1, 3, 7, 15, 31, 63, *past_63]

    def test_cap_refusal_takes_one_evaluation_past_63(self, monkeypatch):
        # the estimate lies past the cap, so the search probes the cap alone
        calls = _count_majority_calls(monkeypatch)
        with pytest.raises(CapExceededError) as exc:
            min_repetitions(0.4996, 0.97)
        assert str(exc.value) == "no odd k <= 100000 reaches target 0.97 at p_prime 0.4996"
        assert calls == [1, 3, 7, 15, 31, 63, REPETITION_CAP - 1]

    def test_answer_is_minimal_for_the_target_within_the_window_error(self):
        # a target set to the float success at k: the k returned reaches it
        # in exact arithmetic less TAIL_ERROR, and k - 2 misses it plus TAIL_ERROR
        rng = random.Random(23)
        for _ in range(30):
            p = rng.uniform(0.44, 0.49)
            t = majority_success(p, rng.randrange(EXACT_K_LIMIT + 1, 803, 2))
            k = min_repetitions(p, t)
            assert helpers.exact_majority_success(p, k) >= Fraction(t) - Fraction(TAIL_ERROR), (p, t)
            assert helpers.exact_majority_success(p, k - 2) < Fraction(t) + Fraction(TAIL_ERROR), (p, t)

    def test_cap_exceeded_near_half(self):
        # p' this close to 1/2 needs ~1e8 repetitions, beyond the 1e5 cap
        assert REPETITION_CAP == 10 ** 5
        with pytest.raises(CapExceededError):
            min_repetitions(0.4999, 0.999)


def test_runs_without_scipy(tmp_path):
    # a fresh interpreter in which any import of scipy fails
    cfg = tmp_path / "vote.json"
    cfg.write_text('{"p_prime": 0.485, "target": 0.9}')
    code = f"""
import sys
sys.modules["scipy"] = None
sys.path.insert(0, {str(Path(ftqc.__file__).parents[1])!r})
from ftqc import cli, majority_success, min_repetitions
assert abs(majority_success(0.3, 1001) - 1.0) < 1e-12
assert min_repetitions(0.485, 0.9) == 1825
sys.exit(cli.main(["vote", "--config", {str(cfg)!r}]))
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert b'"repetitions": 1825' in done.stdout
