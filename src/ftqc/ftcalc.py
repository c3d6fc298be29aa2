"""Concatenation-level planning from scalar fault-tolerance parameters.

The per-gate logical error after N levels of concatenation is

    eps_N = eps_th * (eps0 / eps_th) ** (2 ** N)

treated as exact, and a circuit of gate_count gates fails with probability
at most min(1, gate_count * eps_N).  The planner finds the minimal N whose
circuit failure fits inside the budget (p_hat - p) / 2, by ascending
search, which a tradeoff curve resumes at the previous grid point's level;
the closed-form level estimate is reported alongside for comparison but is
never authoritative (it comes from a sufficient, not tight, bound).

All powers are evaluated in log-space.  Values below 1e-300 flush to zero,
which makes the budget test trivially pass; values beyond the float range
report as inf and are clamped by circuit_failure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import (
    AboveThresholdError,
    BadProbabilityError,
    CapExceededError,
    DomainError,
    InfeasibleError,
)

LEVEL_CAP = 64

# Largest tradeoff grid, so an oversized request fails before allocating.
TRADEOFF_POINT_CAP = 10 ** 5

# Relative slack on the feasibility comparison eps_qc <= budget.  Boundary
# cases (budget exactly saturated in exact arithmetic) must not flip to the
# next level because of float round-off in the log-space evaluation.
FEASIBILITY_SLACK = 1e-9

_LOG_FLUSH = math.log(1e-300)
_LOG_MAX = math.log(1.7976931348623157e308)

_INFEASIBLE_MSG = "infeasible: p_hat must exceed p"


def _check_unit_interval(name: str, value: float, lo_open=True, hi_open=True) -> float:
    v = float(value)
    lo_ok = v > 0.0 if lo_open else v >= 0.0
    hi_ok = v < 1.0 if hi_open else v <= 1.0
    if not (lo_ok and hi_ok and math.isfinite(v)):
        lo = "(" if lo_open else "["
        hi = ")" if hi_open else "]"
        raise BadProbabilityError(f"{name} = {value} outside {lo}0, 1{hi}")
    return v


@dataclass(frozen=True)
class FtParams:
    """Scalar planning inputs: gate errors, circuit size, failure bounds."""

    eps0: float
    eps_th: float
    gate_count: int
    p: float
    p_hat: float

    def __post_init__(self):
        object.__setattr__(self, "eps0", _check_unit_interval("eps0", self.eps0))
        object.__setattr__(self, "eps_th", _check_unit_interval("eps_th", self.eps_th))
        if not isinstance(self.gate_count, int) or self.gate_count < 1:
            raise DomainError(f"gate_count must be a positive integer, got {self.gate_count!r}")
        object.__setattr__(self, "p", _check_unit_interval("p", self.p, lo_open=False))
        object.__setattr__(self, "p_hat", _check_unit_interval("p_hat", self.p_hat, hi_open=False))
        if self.p_hat <= self.p:
            raise InfeasibleError(_INFEASIBLE_MSG)


@dataclass(frozen=True)
class PlanResult:
    levels: int
    eps_n: float
    eps_qc: float
    budget: float
    alpha_required: float
    closed_form_levels: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TradeoffPoint:
    """One grid point of the levels-vs-gate-error curve; levels = -1 marks
    an infeasible point (sentinel, kept so the grid stays rectangular)."""

    eps0: float
    levels: int
    eps_qc: float
    closed_form: float


def required_alpha(p_hat: float, p: float) -> float:
    """Inaccuracy allowance p_hat - p."""
    if p_hat <= p:
        raise InfeasibleError(_INFEASIBLE_MSG)
    return p_hat - p


def epsilon_budget(p_hat: float, p: float) -> float:
    """Circuit-failure budget (p_hat - p) / 2."""
    return required_alpha(p_hat, p) / 2.0


def logical_gate_error(eps0: float, eps_th: float, levels: int) -> float:
    """eps_th * (eps0/eps_th) ** (2**levels), evaluated in log-space.

    Underflow below 1e-300 flushes to 0.0; overflow reports inf (the
    caller's clamp makes that a vacuous probability bound).
    """
    e0 = _check_unit_interval("eps0", eps0)
    eth = _check_unit_interval("eps_th", eps_th)
    if not isinstance(levels, int) or levels < 0:
        raise DomainError(f"levels must be a nonnegative integer, got {levels!r}")
    # 2.0 ** 1024 overflows.  By level 1023 every eps0 != eps_th has flushed
    # to 0.0 or inf, and an eps0 whose log rounds to log(eps_th) is a fixed
    # point, so level 1023 gives the value of every higher level.
    return _level_error(e0, eth, min(levels, 1023))


def _level_error(e0: float, eth: float, levels: int) -> float:
    # exact short-circuits: exponent 2^0 = 1 returns the input, and the
    # threshold is a fixed point at every level
    if levels == 0:
        return e0
    if e0 == eth:
        return eth
    log_eth = math.log(eth)
    log_val = log_eth + 2.0 ** levels * (math.log(e0) - log_eth)
    if log_val < _LOG_FLUSH:
        return 0.0
    if log_val > _LOG_MAX:
        return math.inf
    return math.exp(log_val)


def circuit_failure(eps_n: float, gate_count: int) -> float:
    """min(1, gate_count * eps_n): whole-circuit failure probability bound."""
    if eps_n < 0.0 or math.isnan(eps_n):
        raise DomainError(f"eps_n must be nonnegative, got {eps_n}")
    if gate_count < 1:
        raise DomainError(f"gate_count must be >= 1, got {gate_count}")
    return min(1.0, gate_count * eps_n)


def _closed_form_levels(eps0: float, eps_th: float, gate_count: int, budget: float) -> float:
    """Un-ceiled level estimate log2(ln(N*eps_th/budget) / ln(eps_th/eps0)).

    Returns -inf when the budget already covers gate_count * eps_th (no
    concatenation regime) or when eps0 >= eps_th while still feasible at
    level 0; the iterative planner is authoritative either way.
    """
    num = math.log(gate_count * eps_th / budget)
    if num <= 0.0:
        return -math.inf
    den = math.log(eps_th / eps0)
    if den <= 0.0:
        return -math.inf
    return math.log2(num / den)


def required_levels(params: FtParams) -> PlanResult:
    """Minimal concatenation level meeting the budget, by ascending search.

    Feasibility at level N means
    circuit_failure(logical_gate_error(eps0, eps_th, N), gate_count)
    <= budget * (1 + FEASIBILITY_SLACK).
    """
    budget = epsilon_budget(params.p_hat, params.p)
    n, eps_n, eps_qc = _min_level(params.eps0, params.eps_th, params.gate_count, budget, 0)
    return PlanResult(
        levels=n, eps_n=eps_n, eps_qc=eps_qc, budget=budget,
        alpha_required=required_alpha(params.p_hat, params.p),
        closed_form_levels=_closed_form_levels(params.eps0, params.eps_th, params.gate_count, budget),
    )


def _min_level(eps0: float, eps_th: float, gate_count: int, budget: float,
               start: int) -> tuple[int, float, float]:
    """(N, eps_N, eps_qc) at the first feasible level N >= start, on
    validated inputs; below start the caller knows every level fails."""
    limit = budget * (1.0 + FEASIBILITY_SLACK)
    for n in range(start, LEVEL_CAP + 1):
        eps_n = _level_error(eps0, eps_th, n)
        eps_qc = circuit_failure(eps_n, gate_count)
        if eps_qc <= limit:
            return n, eps_n, eps_qc
        if n == 0 and eps0 >= eps_th:
            raise AboveThresholdError(
                f"eps0 {eps0:.6g} is at or above threshold {eps_th:.6g} "
                "and level 0 misses the budget; concatenation cannot reduce the error"
            )
    if math.log(eps0) == math.log(eps_th):  # tested here only, off the loop
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
    eps_th when the budget already covers gate_count * eps_th.
    """
    if not isinstance(levels, int) or levels < 0:
        raise DomainError(f"levels must be a nonnegative integer, got {levels!r}")
    eth = _check_unit_interval("eps_th", eps_th)
    if gate_count < 1:
        raise DomainError(f"gate_count must be >= 1, got {gate_count}")
    budget = epsilon_budget(p_hat, p)
    if budget >= gate_count * eth:
        return eth
    if levels == 0:
        return budget / gate_count
    # ldexp divides by 2**levels without overflowing at levels >= 1024
    log_ratio = math.ldexp(math.log(budget) - math.log(gate_count) - math.log(eth), -levels)
    return math.exp(math.log(eth) + log_ratio)


def tradeoff_curve(
    eps0_min: float, eps0_max: float, points: int, *,
    eps_th: float, gate_count: int, p: float, p_hat: float,
) -> list[TradeoffPoint]:
    """required_levels along a log-spaced eps0 grid over [eps0_min, eps0_max).

    The right endpoint is excluded, so eps0_max may sit exactly at the
    threshold.  The resulting staircase is monotone: levels never decrease
    as eps0 grows.  A point that rounding puts at or above the threshold,
    where level 0 misses the budget, is emitted with levels = -1.

    The scalars are validated once, and each point's search resumes at the
    previous point's level.  That is exact: below the threshold the failure
    at a fixed level is a chain of monotone float steps in eps0 (log, a
    product with 2**N > 0, exp, the product with gate_count), so a level
    that fails at one eps0 fails at every larger one.  A point at or above
    the threshold, or below its predecessor, searches from level 0.
    """
    if not (0.0 < eps0_min < eps0_max):
        raise DomainError(f"need 0 < eps0_min < eps0_max, got {eps0_min} and {eps0_max}")
    if eps0_max > eps_th:
        raise AboveThresholdError(
            f"eps0_max {eps0_max:.6g} must not exceed the threshold {eps_th:.6g} "
            "(the grid excludes its right endpoint)"
        )
    if not isinstance(points, int) or points < 2:
        raise DomainError(f"points must be an integer >= 2, got {points!r}")
    if points > TRADEOFF_POINT_CAP:
        raise DomainError(f"points = {points} exceeds the cap of {TRADEOFF_POINT_CAP}")
    # numpy only here, so the rest of the planner starts without it; a pure
    # Python grid differs from geomspace in the last bit of some points
    import numpy as np

    grid = np.geomspace(eps0_min, eps0_max, points, endpoint=False).tolist()
    prm = FtParams(eps0=grid[0], eps_th=eps_th, gate_count=gate_count, p=p, p_hat=p_hat)
    eth, n_gates = prm.eps_th, prm.gate_count
    budget = epsilon_budget(prm.p_hat, prm.p)
    rows = []
    level, prev = 0, 0.0
    for e0 in grid:
        _check_unit_interval("eps0", e0)
        start = level if prev <= e0 < eth else 0
        prev = e0
        try:
            level, _, eps_qc = _min_level(e0, eth, n_gates, budget, start)
        except AboveThresholdError:
            rows.append(TradeoffPoint(eps0=e0, levels=-1, eps_qc=math.nan, closed_form=math.nan))
            continue
        closed = _closed_form_levels(e0, eth, n_gates, budget)
        rows.append(TradeoffPoint(eps0=e0, levels=level, eps_qc=eps_qc, closed_form=closed))
    return rows
