"""Majority-vote reliability for a binary computation repeated k times.

With per-run failure bound p' < 1/2, repeating the run an odd number of
times and taking the majority answer succeeds with probability

    sum_{j = (k+1)/2}^{k} C(k, j) (1 - p')**j p'**(k - j)

Small k (up to 64, so every odd k through 63) is evaluated in exact
integer arithmetic over the binary value p' = num / den.  With good =
den - num and m = (k+1)/2 the sum is taken in homogeneous Horner form,

    good**m * (((C(k,k) good + C(k,k-1) num) good + C(k,k-2) num**2) good
               + ... + C(k,m) num**(k-m)) / den**k

so each big-integer product has one small factor, and converted to float
by one correctly rounded division at the end.  Larger k sums the binomial
terms in log space over a window of about 40 standard deviations around
the mean, so the cost grows as sqrt(k), not k; a window above
TAIL_TERM_CAP terms, or any k above 2**53, is refused up front.

min_repetitions doubles k through 1, 3, ..., 63, then probes the Cornish-Fisher crossing
delta k = sigma z sqrt(k) + c, with z = Phi^-1(t) from statistics.NormalDist (loaded only by
a search past 63), sigma = sqrt(p'(1 - p')), delta = 1/2 - p', skew c = (z**2 - 1)(1 - 2p')/6,
and from a miss gallops up in doubling steps from 1% of k before the bracket is narrowed.
"""

import math

from .errors import (
    CapExceededError,
    DomainError,
    EvenRepetitionsError,
    InfeasibleError,
    _check_count,
    _check_unit_interval,
    _shown,
)

# Largest k handled by the exact big-integer path.
EXACT_K_LIMIT = 64

# Search ceiling for min_repetitions.
REPETITION_CAP = 10 ** 5

# Largest binomial window of the k > EXACT_K_LIMIT path (128 MiB per array).
TAIL_TERM_CAP = 2 ** 24


def _majority_success_exact(p_prime: float, k: int) -> float:
    # the Horner form of the module docstring; int / int rounds the exact
    # quotient once, as Fraction.__float__ does
    num, den = p_prime.as_integer_ratio()
    good = den - num
    m = (k + 1) // 2
    acc, npow = 1, 1  # C(k, k)
    for j in range(k - 1, m - 1, -1):
        npow *= num
        acc = acc * good + math.comb(k, j) * npow
    return good ** m * acc / den ** k


def _majority_success_tail(p_prime: float, k: int) -> float:
    # Terms j of Binomial(k, q) within 40 sd + 40 of the mean k*q; Bernstein's
    # inequality puts the mass outside below 2e-26, so the window's own total
    # stands in for 1.  Each term comes from its neighbour,
    # t[j+1] / t[j] = (k - j) / (j + 1) * q / p', summed outwards from the
    # mode so the logs stay small (terms from lgamma differences were off by
    # ~1e-9 at k = 1e7: lgamma near 1e8 has an ulp near 1e-8).  numpy is
    # imported here, so votes with k <= EXACT_K_LIMIT start without it.
    if k > 2 ** 53:  # float64 holds every integer up to 2**53, and j below is float64
        raise DomainError(f"k = {_shown(k)} is past 2**53, where float64 no longer "
                          "holds every integer and no binomial window can be placed")
    q = 1.0 - p_prime
    half = 40.0 * math.sqrt(k * p_prime * q) + 40.0
    lo = max(0, math.floor(k * q - half))
    hi = min(k, math.ceil(k * q + half))
    if hi - lo > TAIL_TERM_CAP:
        raise DomainError(
            f"k = {k} needs a window of {hi - lo} binomial terms ({8 * (hi - lo)} bytes "
            f"per array), above the cap of {TAIL_TERM_CAP} terms"
        )
    import numpy as np

    c = math.floor((k + 1) * q) - lo
    j = np.arange(lo, hi, dtype=np.float64)
    step = np.log((k - j) / (j + 1)) + math.log(q / p_prime)
    logt = np.concatenate((-np.cumsum(step[:c][::-1])[::-1], [0.0], np.cumsum(step[c:])))
    terms = np.exp(logt)
    return float(terms[max((k + 1) // 2 - lo, 0):].sum() / terms.sum())


def majority_success(p_prime: float, k: int) -> float:
    """Probability that the majority of k runs is correct.

    :param p_prime: per-run failure probability, in [0, 1].
    :param k: odd positive repetition count; above 64 the cost grows as sqrt(k).
    """
    p = _check_unit_interval("p_prime", p_prime, lo_open=False, hi_open=False)
    k = _check_count(k, "repetitions", 1, None, DomainError)
    if k % 2 == 0:
        raise EvenRepetitionsError(f"repetitions must be odd, got {_shown(k)}")
    if k <= EXACT_K_LIMIT:
        return _majority_success_exact(p, k)
    if p in (0.0, 1.0):
        return 1.0 - p
    # round-off only; max(nan, 0.0) is nan, where max(0.0, nan) would be 0.0
    return min(max(_majority_success_tail(p, k), 0.0), 1.0)


def min_repetitions(p_prime: float, target: float) -> int:
    """Smallest odd k whose majority success reaches the target.

    Requires p' < 1/2; at or above one half more repetitions never help.
    Past k = 63 the search starts at the Cornish-Fisher estimate (module docstring).
    """
    p = _check_unit_interval("p_prime", p_prime, lo_open=False, hi_open=False)
    if p >= 0.5:
        raise InfeasibleError(
            f"p_prime = {p_prime} is not below 1/2; majority voting cannot converge"
        )
    t = _check_unit_interval("target", target)
    # success is nondecreasing in odd k below 1/2: find a k that reaches the
    # target, then narrow the bracket s(miss) < t <= s(k) on odd k
    top = (REPETITION_CAP - 1) | 1
    miss, low, k, step = 0, 0.0, 1, 2  # zero runs have no majority
    hit = majority_success(p, k)
    while hit < t:
        if k == top:
            raise CapExceededError(
                f"no odd k <= {REPETITION_CAP} reaches target {target} at p_prime {p_prime}"
            )
        miss, low = k, hit
        if k == EXACT_K_LIMIT - 1:  # past the exact path: the Cornish-Fisher crossing
            from statistics import NormalDist

            z, sigma, delta = NormalDist().inv_cdf(t), math.sqrt(p * (1.0 - p)), 0.5 - p
            disc = (sigma * z) ** 2 + 4.0 * delta * (z * z - 1.0) * (1.0 - 2.0 * p) / 6.0
            root = (sigma * z + (math.sqrt(disc) if disc >= 0.0 else sigma * z)) / (2.0 * delta)
            k = max(int(min(root * root, top)) | 1, k + 2)
            step = 2 * (k // 200 + 1)
        else:  # k + step is 2k + 1 up to 63, and a gallop past the estimate
            k, step = min(k + step, top), 2 * step
        hit = majority_success(p, k)
    return _narrow(p, t, miss, low, k, hit)


def _narrow(p: float, t: float, miss: int, low: float, k: int, hit: float) -> int:
    """Smallest odd k in (miss, k], given s(miss) = low < t <= hit = s(k).

    log(1 - s) falls almost linearly in k, so each split interpolates
    log1p(-s) linearly between the ends and takes the odd k at or below the
    crossing (the curve is convex, so the chord's crossing lies past the
    true one).  The split is the odd midpoint instead when the upper end
    reads 1.0, which has no logarithm, or when the last three splits left
    more than half of the bracket they started from, so at least every
    fourth split halves the bracket (up to the rounding to odd k).
    """
    goal = math.log1p(-t)
    widths = [k - miss]
    while k - miss > 2:
        mid = (miss + k) // 2 | 1
        if hit < 1.0 and not (len(widths) > 3 and 2 * widths[-1] > widths[-4]):
            f_miss = math.log1p(-low) - goal  # >= 0
            f_hit = math.log1p(-hit) - goal  # <= 0
            if f_miss > f_hit:
                x = miss + (k - miss) * f_miss / (f_miss - f_hit)
                mid = min(max((math.floor(x) - 1) | 1, miss + 2), k - 2)
        s = majority_success(p, mid)
        if s >= t:
            k, hit = mid, s
        else:
            miss, low = mid, s
        widths.append(k - miss)
    return k
