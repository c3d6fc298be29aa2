"""Concatenation-level planning from scalar fault-tolerance parameters.

The per-gate logical error after N levels of concatenation is

    eps_N = eps_th * (eps0 / eps_th) ** (2 ** N)

treated as exact, and a circuit of gate_count gates fails with probability
at most min(1, gate_count * eps_N).  The planner finds the minimal N whose
circuit failure fits inside the budget (p_hat - p) / 2, by ascending
search.  A tradeoff curve evaluates each grid point's failure once, at the
level carried over from the previous point, and searches upward only when
that level misses the budget.  The closed-form level estimate is reported
alongside for comparison but is never authoritative (it comes from a
sufficient, not tight, bound).

All powers are evaluated in log-space.  Values of eps_N below 1e-300 flush
to zero; the budget test of a flushed level then takes its failure from
log(gate_count) + log(eps_N), so a huge gate count still fails it, and the
eps_qc reported is that failure, not 0.  Values beyond the float range
report as inf and are clamped by circuit_failure.
"""

import math
import sys
from collections import namedtuple
from itertools import repeat

from .errors import (
    AboveThresholdError,
    CapExceededError,
    DomainError,
    InfeasibleError,
    _as_float,
    _check_count,
    _check_type,
    _check_unit_interval,
    _shown,
)

LEVEL_CAP = 64

# Largest tradeoff grid, so an oversized request fails before allocating.
TRADEOFF_POINT_CAP = 10 ** 5

# Relative slack on the feasibility comparison eps_qc <= budget.  Boundary
# cases (budget exactly saturated in exact arithmetic) must not flip to the
# next level because of float round-off in the log-space evaluation.
FEASIBILITY_SLACK = 1e-9

_LOG_FLUSH = math.log(1e-300)
_FLUSH = math.exp(_LOG_FLUSH)  # the smallest eps_N that does not flush
_LOG_MAX = math.log(1.7976931348623157e308)


def _check_gate_count(gate_count) -> int:
    n = _check_count(gate_count, "gate_count", 1, None, DomainError)
    if n > sys.float_info.max:  # the scaling law multiplies it as a float
        raise DomainError(f"gate_count must not exceed the largest float {sys.float_info.max!r}")
    return n


class FtParams(namedtuple("FtParams", "eps0 eps_th gate_count p p_hat")):
    """Planning inputs with a positive budget, checked at every build: by _make, _replace, copy and pickle too."""

    __slots__ = ()

    def __new__(cls, eps0: float, eps_th: float, gate_count: int, p: float, p_hat: float):
        eps0 = _check_unit_interval("eps0", eps0)
        eps_th = _check_unit_interval("eps_th", eps_th)
        gate_count = _check_gate_count(gate_count)
        epsilon_budget(p_hat, p)
        return super().__new__(cls, eps0, eps_th, gate_count, float(p), float(p_hat))

    @classmethod
    def _make(cls, iterable):  # the named tuple's own builds through tuple.__new__, unchecked
        return cls(*iterable)


class _DataclassFields:
    """A named tuple's __dataclass_fields__, for dataclasses.replace, fields and asdict:
    made on first access and cached on the class, so the planner never loads dataclasses."""

    def __get__(self, obj, cls):
        from dataclasses import make_dataclass

        cls.__dataclass_fields__ = fields = make_dataclass(cls.__name__, cls._fields).__dataclass_fields__
        return fields


class PlanResult(namedtuple("PlanResult", "levels eps_n eps_qc budget alpha_required closed_form_levels")):
    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()


class TradeoffPoint(namedtuple("TradeoffPoint", "eps0 levels eps_qc closed_form")):
    """One grid point of the levels-vs-gate-error curve; levels = -1 marks
    a point within float rounding of the threshold, where no level meets
    the budget (sentinel, kept so the grid stays rectangular).  A named
    tuple, as a curve builds one per grid point."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()


def required_alpha(p_hat: float, p: float) -> float:
    """Inaccuracy allowance p_hat - p, for p in [0, 1) and p_hat in (0, 1]."""
    p = _check_unit_interval("p", p, lo_open=False)
    p_hat = _check_unit_interval("p_hat", p_hat, hi_open=False)
    if p_hat <= p:
        raise InfeasibleError("infeasible: p_hat must exceed p")
    return p_hat - p


def epsilon_budget(p_hat: float, p: float) -> float:
    """Circuit-failure budget (p_hat - p) / 2; a budget that rounds to 0
    (p_hat - p is the smallest subnormal) is refused, as no failure bound
    can be planned against it."""
    budget = required_alpha(p_hat, p) / 2.0
    if budget == 0.0:
        raise InfeasibleError(
            f"infeasible: the budget (p_hat - p) / 2 rounds to 0 at p_hat {float(p_hat)!r}, p {float(p)!r}"
        )
    return budget


def logical_gate_error(eps0: float, eps_th: float, levels: int) -> float:
    """eps_th * (eps0/eps_th) ** (2**levels), evaluated in log-space.

    Underflow below 1e-300 flushes to 0.0; overflow reports inf (the
    caller's clamp makes that a vacuous probability bound).
    """
    e0 = _check_unit_interval("eps0", eps0)
    eth = _check_unit_interval("eps_th", eps_th)
    levels = _check_count(levels, "levels", 0, None, DomainError)
    # 2.0 ** 1024 overflows.  By level 1023 every eps0 != eps_th has flushed
    # to 0.0 or inf, and an eps0 whose log rounds to log(eps_th) is a fixed
    # point, so level 1023 gives the value of every higher level.
    return _level_error(e0, eth, math.log(eth), min(levels, 1023))


def _level_error(e0: float, eth: float, log_eth: float, levels: int) -> float:
    """The scaling law on validated inputs; log_eth = math.log(eth)."""
    # exact short-circuits: exponent 2^0 = 1 returns the input, and the
    # threshold is a fixed point at every level
    if levels == 0:
        return e0
    if e0 == eth:
        return eth
    log_val = log_eth + 2.0 ** levels * (math.log(e0) - log_eth)
    if log_val < _LOG_FLUSH:
        return 0.0
    if log_val > _LOG_MAX:
        return math.inf
    return math.exp(log_val)


def _flushed_failure(log_val: float, gate_count: int) -> float:
    """The failure bound gate_count * eps_N of a level whose eps_N flushed
    (log_val = log(eps_N) < _LOG_FLUSH), from the logarithms, capped at the
    failure of the smallest unflushed eps_N (so failure never falls as eps0
    grows across the flush) but not at 1, as every budget is at most 0.5."""
    return min(gate_count * _FLUSH, math.exp(math.log(gate_count) + log_val))


def circuit_failure(eps_n: float, gate_count: int) -> float:
    """min(1, gate_count * eps_n): whole-circuit failure probability bound.
    eps_n is any nonnegative real number, inf included (an overflowed level)."""
    e = _as_float(eps_n)
    if not e >= 0.0:
        raise DomainError(f"eps_n must be a nonnegative real number, got {_shown(eps_n)}")
    return min(1.0, _check_gate_count(gate_count) * e)


def _closed_form_numerator(eps_th: float, gate_count: int, budget: float) -> float:
    """ln(gate_count * eps_th / budget), the eps0-free part of the closed form."""
    return math.log(gate_count * eps_th / budget)


def _closed_form_levels(eps0: float, eps_th: float, num: float) -> float:
    """Un-ceiled level estimate log2(num / ln(eps_th/eps0)), where num is
    _closed_form_numerator(eps_th, gate_count, budget).

    Returns -inf when the budget already covers gate_count * eps_th (no
    concatenation regime, num <= 0), when eps0 >= eps_th while still
    feasible at level 0, and when eps_th / eps0 overflows (the limit there);
    the iterative planner is authoritative in every case.
    """
    if num <= 0.0:
        return -math.inf
    den = math.log(eps_th / eps0)
    if not 0.0 < den < math.inf:
        return -math.inf
    return math.log2(num / den)


def required_levels(params: FtParams) -> PlanResult:
    """Minimal concatenation level meeting the budget, by ascending search.

    Feasibility at level N means
    circuit_failure(logical_gate_error(eps0, eps_th, N), gate_count)
    <= budget * (1 + FEASIBILITY_SLACK).
    """
    eps0, eps_th, gate_count, p, p_hat = _check_type(params, (FtParams,), "params")
    alpha = p_hat - p
    budget = alpha / 2.0  # positive, as FtParams checked it
    n, eps_n, eps_qc = _min_level(eps0, eps_th, gate_count, budget, 0)
    return PlanResult(
        levels=n, eps_n=eps_n, eps_qc=eps_qc, budget=budget, alpha_required=alpha,
        closed_form_levels=_closed_form_levels(eps0, eps_th, _closed_form_numerator(eps_th, gate_count, budget)),
    )


def _min_level(eps0: float, eps_th: float, gate_count: int, budget: float,
               start: int) -> tuple[int, float, float]:
    """(N, eps_N, eps_qc) at the first feasible level N >= start, on
    validated inputs; below start the caller knows every level fails."""
    limit = budget * (1.0 + FEASIBILITY_SLACK)
    log_eth = math.log(eps_th)
    for n in range(start, LEVEL_CAP + 1):
        eps_n = _level_error(eps0, eps_th, log_eth, n)
        if eps_n:
            eps_qc = gate_count * eps_n  # circuit_failure unclamped: above 1 it misses
        else:  # flushed, as eps0 and eps_th are positive
            eps_qc = _flushed_failure(log_eth + 2.0 ** n * (math.log(eps0) - log_eth), gate_count)
        if eps_qc <= limit:
            return n, eps_n, eps_qc
        if n == 0 and eps0 >= eps_th:
            raise AboveThresholdError(
                f"eps0 {eps0:.6g} is at or above threshold {eps_th:.6g} "
                "and level 0 misses the budget; concatenation cannot reduce the error"
            )
    if math.log(eps0) == log_eth:  # tested here only, off the loop
        raise AboveThresholdError(
            f"eps0 {eps0!r} is within float rounding of the threshold {eps_th!r}: their "
            "logarithms are equal, so no level of concatenation lowers the error")
    raise CapExceededError(
        f"no level up to {LEVEL_CAP} meets the budget {budget:.6g}; "
        "this cannot happen for eps0 < eps_th and guards broken numerics"
    )


def max_gate_error(levels: int, eps_th: float, gate_count: int, p_hat: float, p: float) -> float:
    """Largest eps0 whose circuit failure at the given level fits the budget.

    eps_th * (budget / (gate_count * eps_th)) ** (1 / 2**levels), clamped at
    eps_th, so the result is never above eps_th: it is eps_th when the budget
    already covers gate_count * eps_th or the root rounds past it.  Planning at
    the result needs at most `levels` up to level 19, and from level 20 can
    need one more: a few ulps in eps0 then outweigh FEASIBILITY_SLACK.
    """
    levels = _check_count(levels, "levels", 0, None, DomainError)
    eth = _check_unit_interval("eps_th", eps_th)
    gate_count = _check_gate_count(gate_count)
    budget = epsilon_budget(p_hat, p)
    if budget >= gate_count * eth:
        return eth
    if levels == 0:
        return budget / gate_count
    # ldexp divides by 2**levels without overflowing at levels >= 1024
    log_ratio = math.ldexp(math.log(budget) - math.log(gate_count) - math.log(eth), -levels)
    return min(eth, math.exp(math.log(eth) + log_ratio))


def _log_grid(lo: float, hi: float, points: int) -> list[float]:
    """tradeoff_curve's grid: points log-spaced values from lo towards hi,
    each clamped below hi (near hi the logarithms can round onto hi's)."""
    log_lo = math.log10(lo)
    step = (math.log10(hi) - log_lo) / points
    grid = [lo] + [10.0 ** (i * step + log_lo) for i in range(1, points)]
    if max(grid) < hi:
        return grid
    below = math.nextafter(hi, 0.0)
    return [x if x < hi else below for x in grid]


def tradeoff_curve(
    eps0_min: float, eps0_max: float, points: int, *,
    eps_th: float, gate_count: int, p: float, p_hat: float,
) -> list[TradeoffPoint]:
    """required_levels along a log-spaced eps0 grid over [eps0_min, eps0_max),
    as one TradeoffPoint(eps0, levels, eps_qc, closed_form) per grid point.

    Grid point i is 10 ** (i * step + log10(eps0_min)) with
    step = (log10(eps0_max) - log10(eps0_min)) / points, and point 0 is
    eps0_min exactly: numpy.geomspace's recipe with endpoint=False, in
    Python floats, so a point can differ from geomspace's by a few ulps.
    The right endpoint is excluded: a point that rounding would put at or
    above eps0_max is clamped to the float just below it, so eps0_max may
    sit exactly at the threshold.  The resulting staircase is monotone:
    levels never decrease as eps0 grows.  A point within float rounding of
    the threshold, where no level meets the budget, is emitted with
    levels = -1 and NaN eps_qc and closed_form.

    The scalars are validated once, and log(eps_th), the feasibility limit
    and the closed form's numerator are taken once per grid.  Each point
    then evaluates its failure once, at the previous point's level, and
    only when that misses the budget does _min_level search on from the
    next level up.  That is exact: below the threshold the failure at a
    fixed level is a chain of monotone float steps in eps0 (log, a product
    with 2**N > 0, exp, the product with gate_count, or for a flushed eps_N
    the capped sum of logarithms of _flushed_failure), so a level that
    fails at one eps0 fails at every larger one.  A point below its
    predecessor searches from level 0.

    The test at the carried level is _level_error and circuit_failure
    inlined, with 2**N taken only when the level moves and no clamp at 1,
    which a failure that meets the budget (at most 0.5) never reaches.  The
    same loop appends each row's closed form, one expression when the grid's
    ends show that _closed_form_levels would take none of its special cases.
    Both do the same float operations in the same order as those functions,
    so every row is identical, bit for bit, to a required_levels call there.
    """
    lo = _check_unit_interval("eps0_min", eps0_min)
    hi = _check_unit_interval("eps0_max", eps0_max)
    if not lo < hi:
        raise DomainError(f"need 0 < eps0_min < eps0_max, got {lo} and {hi}")
    prm = FtParams(eps0=lo, eps_th=eps_th, gate_count=gate_count, p=p, p_hat=p_hat)
    eth, n_gates = prm.eps_th, prm.gate_count
    if hi > eth:
        raise AboveThresholdError(
            f"eps0_max {hi:.6g} must not exceed the threshold {eth:.6g} "
            "(the grid excludes its right endpoint)"
        )
    points = _check_count(points, "points", 2, TRADEOFF_POINT_CAP, DomainError)
    grid = _log_grid(lo, hi, points)
    budget = (prm.p_hat - prm.p) / 2.0  # positive, as FtParams checked it
    limit = budget * (1.0 + FEASIBILITY_SLACK)
    log_eth = math.log(eth)
    cf_num = _closed_form_numerator(eth, n_gates, budget)
    log, exp, n_float = math.log, math.exp, float(n_gates)
    # log(eth / e0) falls as e0 grows: positive and finite at both ends, it is so at every point
    inline_cf = cf_num > 0.0 and log(eth / max(grid)) > 0.0 and log(eth / min(grid)) < math.inf
    levels, eps_qcs, closed = [], [], []
    level, scale, prev = 0, 1.0, 0.0
    for e0 in grid:
        if prev <= e0:
            # _level_error and circuit_failure inlined, on values that need no
            # checks; below the threshold log_val <= log_eth, so no overflow
            if not level:
                eps_qc = n_float * e0
            elif (log_val := log_eth + scale * (log(e0) - log_eth)) < _LOG_FLUSH:
                eps_qc = _flushed_failure(log_val, n_gates)
            else:
                eps_qc = n_float * exp(log_val)
            start = level + 1
        else:
            eps_qc, start = math.inf, 0
        prev = e0
        if eps_qc > limit:
            try:
                level, _, eps_qc = _min_level(e0, eth, n_gates, budget, start)
            except AboveThresholdError:
                levels.append(-1)
                eps_qcs.append(math.nan)
                closed.append(math.nan)
                continue
            scale = 2.0 ** level
        levels.append(level)
        eps_qcs.append(eps_qc)
        closed.append(math.log2(cf_num / log(eth / e0)) if inline_cf else _closed_form_levels(e0, eth, cf_num))
    # tuple.__new__ skips the named tuple's Python-level constructor
    return list(map(tuple.__new__, repeat(TradeoffPoint), zip(grid, levels, eps_qcs, closed)))
