"""Certification that a noisy implementation stays close to its ideal map.

The central quantity is the implementation inaccuracy at a state rho:

    || P(rho) - G(rho) ||_1

where G is the ideal map and P the noisy implementation of the same
circuit.  Its maximum alpha over a computation's input states combines with
the intrinsic failure bound p into a per-input failure bound p + alpha.
That combined bound is a theorem: if an instance violates it the numerics
are broken, so the check raises instead of reporting a false flag.  A report
derives its summary from its per-input records, so the two cannot disagree.
G is compile_ideal's unitary U, rho -> U rho U+, and only P runs gate by
gate (channels.evolve); every gap, the mixing check's too, is taken by one
checked step, densmat._distances.
"""

import functools
from collections import namedtuple

import numpy as np

from .channels import Circuit, NoiseModel, compile_ideal, evolve
from .densmat import (
    MAX_DIM,
    DensityMatrix,
    _ReadOnly,
    _as_square_matrix,
    _check_near_one,
    _check_unitary,
    _distances,
    _readout,
)
from .errors import (
    BadProbabilityError,
    DimensionMismatchError,
    DomainError,
    TheoremViolationError,
    _check_count,
    _check_type,
    _check_unit_interval,
)
from .kitaev import OverallComputation

# Absolute slack on the favorable side of every bound check in this module.
BOUND_SLACK = 1e-9

# Largest trial count alpha_random_search accepts (10**9 trials would run for years).
SEARCH_TRIAL_CAP = 10 ** 5


class LinkingMaps(_ReadOnly):
    """Logical-to-computational embedding: append a fixed ancilla, trace it out.

    No gate acts on the ancilla, so P (x) I applied to rho (x) |0><0| and
    traced down is exactly P(rho): every valid ancilla_dim gives the same
    result as 1, so it is checked and not kept, and the maps are never built.
    """

    __slots__ = ()

    def __init__(self, ancilla_dim: int = 1):
        _check_count(ancilla_dim, "ancilla_dim", 1, None, DimensionMismatchError)


class InputRecord(namedtuple("InputRecord", "x ideal_success actual_success inaccuracy_x")):
    """Input x's ideal and noisy success probability and its outputs' trace distance."""

    __slots__ = ()


def _within_bound(r: InputRecord, p: float, alpha: float) -> bool:
    return 1.0 - r.actual_success <= p + alpha + BOUND_SLACK


class QccReport(_ReadOnly):
    """A certification's per-input records and the p, alpha, bound flag and margin they give."""

    __slots__ = ("per_input", "alpha", "p", "bound_holds", "worst_margin")

    def __init__(self, per_input: tuple[InputRecord, ...]):
        per_input = tuple(per_input)
        if not per_input:
            raise DimensionMismatchError("report needs at least one input record")
        p = max(1.0 - r.ideal_success for r in per_input)
        alpha = max(r.inaccuracy_x for r in per_input)
        self.per_input, self.alpha, self.p = per_input, alpha, p
        self.bound_holds = all(_within_bound(r, p, alpha) for r in per_input)
        self.worst_margin = min(p + alpha - (1.0 - r.actual_success) for r in per_input)

    def to_dict(self) -> dict:
        """JSON-ready form: the fields in slot order, per_input a tuple of dicts."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        return {**fields, "per_input": tuple(r._asdict() for r in self.per_input)}


class MixingCheck(namedtuple("MixingCheck", "measured bound holds")):
    """The mixture's measured distance from the ideal state, its 2*eps bound, and whether it holds."""

    __slots__ = ()


def _check_trials(trials) -> int:
    return _check_count(trials, "trials", 1, SEARCH_TRIAL_CAP, DomainError)


def alpha_random_search(P, G: np.ndarray, link: LinkingMaps, trials: int, seed: int) -> float:
    """Estimate the all-states supremum by sampling Haar-random pure states.

    P is the noisy circuit as a map on (B, d, d) stacks (implemented_channel)
    and G the ideal circuit's d x d unitary (compile_ideal), checked as a gate
    matrix is; link is accepted and unused, as no gate acts on its ancilla.
    Blocks of (MAX_DIM // d)**2 pure vectors v, 1 MiB per stack, go through P
    as v v+ and through G as (G v)(G v)+.  Trial t draws from one Philox
    generator reset to key (seed mod 2**64, t), counter 0, as a new
    Philox(key=[seed, t]) starts.  A lower bound on the true supremum, reported
    beside the input-level alpha and never used in the certified bound.
    """
    trials = _check_trials(trials)
    if not callable(P):
        raise DomainError(f"P must be callable, got {type(P).__name__}")
    G = _as_square_matrix(G)
    _check_unitary(G, "G")
    dim = G.shape[0]
    key_hi = _check_count(seed, "seed", None, None, DomainError) % (2 ** 64)
    bits = np.random.Philox(key=np.array([key_hi, 0], dtype=np.uint64))
    gen, fresh = np.random.Generator(bits), bits.state
    per_block, worst = (MAX_DIM // dim) ** 2, 0.0
    for start in range(0, trials, per_block):
        vectors = np.empty((min(per_block, trials - start), dim), dtype=complex)
        for t, v in enumerate(vectors, start):
            fresh["state"]["key"][1] = t
            bits.state = fresh
            v[:] = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
            v /= np.linalg.norm(v)
        w = vectors @ G.T
        ideal = w[:, :, np.newaxis] * w[:, np.newaxis, :].conj()
        actual = P(vectors[:, :, np.newaxis] * vectors[:, np.newaxis, :].conj())
        worst = max(worst, float(_distances(actual, ideal).max()))
    return worst


def implemented_channel(circ: Circuit, noise: NoiseModel, link: LinkingMaps = LinkingMaps()):
    """The noisy circuit as a map on (B, d, d) stacks; the ancilla of `link`
    carries no gate, so it leaves the map unchanged."""
    return functools.partial(evolve, circ, noise)


def certify_combined_bound(circ: Circuit, noise: NoiseModel, comp: OverallComputation) -> QccReport:
    """Run the full certification for one computation under one noise model.

    The ideal outputs are U rho U+ with U = compile_ideal(circ), for basis
    and mixed inputs alike; the input stack goes, uncopied, once through the
    noisy circuit.  Each record holds an input's ideal and actual success and
    the trace distance of its outputs, from which the report derives p and
    alpha.  The first input, in ``inputs`` order, whose failure exceeds p +
    alpha + 1e-9, then the first above ideal failure + inaccuracy_x / 2 (as
    tr(E D) <= ||D||_1 / 2) + 1e-9 * (1 + inaccuracy_x), raises TheoremViolationError.
    """
    d = _check_type(comp, (OverallComputation,), "comp").init.shape[1]
    if _check_type(circ, (Circuit,), "circ").dim != d:
        raise DimensionMismatchError(f"circuit dim {circ.dim} does not match computation dim {d}")
    u = compile_ideal(circ)
    ideal = u @ comp.init @ u.conj().T
    actual = evolve(circ, noise, comp.init)
    inaccuracy = _distances(actual, ideal).tolist()
    ideal_probs = _readout(ideal, comp.povm)
    _check_near_one(ideal_probs.sum(axis=1), "outcome probabilities sum to", BadProbabilityError)
    # each input succeeds with the probability of its truth-table outcome
    want = [comp.outputs.index(y) for y in comp.truth_table]
    cells = (np.arange(len(want)), want)
    ideal_success = ideal_probs[cells].tolist()
    actual_success = _readout(actual, comp.povm)[cells].tolist()
    report = QccReport(map(InputRecord, comp.inputs, ideal_success, actual_success, inaccuracy))
    if not report.bound_holds:
        p, alpha = report.p, report.alpha
        r = next(r for r in report.per_input if not _within_bound(r, p, alpha))
        raise TheoremViolationError(
            f"combined bound violated at input {r.x!r}: "
            f"failure {1.0 - r.actual_success:.12g} > p + alpha = {p + alpha:.12g} + {BOUND_SLACK:.0e}; "
            "this indicates defective numerics, not a bad input"
        )
    for r in report.per_input:  # an effect may leave [0, 1] by 1e-9, so the slack grows with the distance
        bound = 1.0 - r.ideal_success + r.inaccuracy_x / 2
        if not 1.0 - r.actual_success <= bound + BOUND_SLACK * (1.0 + r.inaccuracy_x):
            raise TheoremViolationError(
                f"per-input bound violated at input {r.x!r}: failure {1.0 - r.actual_success:.12g} > "
                f"ideal failure + inaccuracy / 2 = {bound:.12g} + {BOUND_SLACK:.0e} * (1 + inaccuracy); "
                "this indicates defective numerics, not a bad input"
            )
    return report


def mixing_inaccuracy_bound_check(
    ideal_out: DensityMatrix, rho_err: DensityMatrix, eps_qc: float
) -> MixingCheck:
    """Check the mixture (1 - eps) ideal + eps err, which models residual
    circuit error, against its generic 2*eps ceiling.

    measured = ||mixture - ideal||_1, which equals eps * ||err - ideal||_1
    and therefore never exceeds 2*eps.  holds is always true for valid
    states; a false value would mean broken numerics.
    """
    e = _check_unit_interval("eps_qc", eps_qc, lo_open=False, hi_open=False)
    ideal = _check_type(ideal_out, (DensityMatrix,), "ideal_out").entries
    err = _check_type(rho_err, (DensityMatrix,), "rho_err").entries
    if len(ideal) != len(err):
        raise DimensionMismatchError(f"state dims differ: {len(ideal)} vs {len(err)}")
    mixture = (1.0 - e) * ideal + e * err
    measured = float(_distances(mixture[np.newaxis], ideal[np.newaxis])[0])
    bound = 2.0 * e
    return MixingCheck(measured=measured, bound=bound, holds=measured <= bound + BOUND_SLACK)
