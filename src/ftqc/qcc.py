"""Certification that a noisy implementation stays close to its ideal map.

The central quantity is the implementation inaccuracy at a state rho:

    || P(rho) - G(rho) ||_1

where G is the ideal map and P the noisy implementation of the same
circuit.  Its maximum alpha over a computation's input states combines with
the intrinsic failure bound p into a per-input failure bound p + alpha.
That combined bound is a theorem: if an instance violates it the numerics
are broken, so the check raises instead of reporting a false flag.
Certification and the random search push whole stacks of states through
channels.evolve, and check and measure the output stacks, never one state
object at a time.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .channels import Circuit, NoiseModel, evolve
from .densmat import (
    VALIDATION_TOL,
    DensityMatrix,
    _check_effects,
    _check_states,
    _readout,
    _trace_norms,
    trace_norm,
)
from .errors import (
    BadProbabilityError,
    DimensionMismatchError,
    DomainError,
    TheoremViolationError,
)
from .kitaev import OverallComputation

# Absolute slack on the favorable side of every bound check in this module.
BOUND_SLACK = 1e-9

# Largest trial count alpha_random_search accepts (10**9 trials would run for years).
SEARCH_TRIAL_CAP = 10 ** 5

# Trials alpha_random_search pushes through the circuit at once.
SEARCH_BLOCK = 16


@dataclass(frozen=True)
class LinkingMaps:
    """Logical-to-computational embedding: append a fixed ancilla, trace it out.

    No gate acts on the ancilla, so P (x) I applied to rho (x) |0><0| and
    traced down is exactly P(rho): every valid ancilla_dim gives the same
    result as 1, and the maps are never materialized.
    """

    ancilla_dim: int = 1

    def __post_init__(self):
        if not isinstance(self.ancilla_dim, int) or self.ancilla_dim < 1:
            raise DimensionMismatchError(
                f"ancilla_dim must be a positive integer, got {self.ancilla_dim!r}"
            )


@dataclass(frozen=True)
class InputRecord:
    """Per-input certification data."""

    x: str
    ideal_success: float
    actual_success: float
    inaccuracy_x: float


@dataclass(frozen=True)
class QccReport:
    per_input: tuple[InputRecord, ...]
    alpha: float
    p: float
    bound_holds: bool
    worst_margin: float

    def __post_init__(self):
        object.__setattr__(self, "per_input", tuple(self.per_input))
        if not self.per_input:
            raise DimensionMismatchError("report needs at least one input record")
        worst = max(r.inaccuracy_x for r in self.per_input)
        if abs(worst - self.alpha) > 1e-12:
            raise DomainError(
                f"alpha {self.alpha} is not the max per-input inaccuracy {worst}"
            )
        holds = all(
            (1.0 - r.actual_success) <= self.p + self.alpha + BOUND_SLACK
            for r in self.per_input
        )
        if holds != self.bound_holds:
            raise DomainError("bound_holds flag contradicts the per-input records")

    def to_dict(self) -> dict:
        """JSON-ready form, fields in declaration order."""
        return asdict(self)


class MixingCheck(NamedTuple):
    measured: float
    bound: float
    holds: bool


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if trials > SEARCH_TRIAL_CAP:
        raise DomainError(f"trials = {trials} exceeds the cap of {SEARCH_TRIAL_CAP}")


def alpha_random_search(P, G: np.ndarray, link: LinkingMaps, trials: int, seed: int) -> float:
    """Estimate the all-states supremum by sampling Haar-random pure states.

    P is the noisy circuit as a map on (B, d, d) stacks (implemented_channel)
    and G the ideal circuit's d x d unitary (compile_ideal).  Each block of
    pure vectors v goes through P as the stack of v v+, and through G as the
    outer products of the vectors G v, at d**2 per trial.  A lower bound on
    the true supremum; reported alongside the input-level alpha, never used
    in the certified bound.  Counter-based generator keyed by (seed, trial)
    so serial and parallel evaluation orders agree.
    """
    _check_trials(trials)
    dim = G.shape[0]
    key_hi = int(seed) % (2 ** 64)
    worst = 0.0
    for start in range(0, trials, SEARCH_BLOCK):
        block = range(start, min(start + SEARCH_BLOCK, trials))
        vectors = np.empty((len(block), dim), dtype=complex)
        for row, t in enumerate(block):
            gen = np.random.Generator(np.random.Philox(key=np.array([key_hi, t], dtype=np.uint64)))
            v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
            vectors[row] = v / np.linalg.norm(v)
        w = vectors @ G.T
        ideal = w[:, :, np.newaxis] * w[:, np.newaxis, :].conj()
        actual = P(vectors[:, :, np.newaxis] * vectors[:, np.newaxis, :].conj())
        for outputs in (actual, ideal):
            _check_states(outputs)
        worst = max(worst, float(_trace_norms(actual - ideal).max()))
    return worst


def implemented_channel(circ: Circuit, noise: NoiseModel, link: LinkingMaps = LinkingMaps()):
    """The noisy circuit as a map on (B, d, d) stacks; the ancilla of `link`
    carries no gate, so it leaves the map unchanged."""
    return functools.partial(evolve, circ, noise)


def certify_combined_bound(
    circ: Circuit, noise: NoiseModel, comp: OverallComputation
) -> QccReport:
    """Run the full certification for one computation under one noise model.

    The input states are evolved as one stack through the ideal circuit and
    once through the noisy one.  p comes from the ideal outcome distributions,
    alpha from the trace distance between the two outputs of every input,
    and each input's actual failure probability is checked against p + alpha.
    The inequality holds by theorem; a violation beyond the 1e-9 slack raises
    TheoremViolationError instead of returning a report.
    """
    if circ.dim != comp.dim:
        raise DimensionMismatchError(
            f"circuit dim {circ.dim} does not match computation dim {comp.dim}"
        )
    inputs = np.stack([comp.init[x].entries for x in comp.inputs])
    ideal = evolve(circ, NoiseModel(kind="none"), inputs)
    _check_states(ideal)
    actual = evolve(circ, noise, inputs)
    _check_states(actual)
    effects = np.stack([comp.povm[y].entries for y in comp.outputs])
    _check_effects(effects)
    ideal_probs = _readout(ideal, effects)
    totals = ideal_probs.sum(axis=1)
    i = np.argmax(np.abs(totals - 1.0))
    if abs(totals[i] - 1.0) > VALIDATION_TOL:
        raise BadProbabilityError(f"outcome probabilities sum to {totals[i]:.12g}, expected 1")
    # each input succeeds with the probability of its truth-table outcome
    want = [comp.outputs.index(comp.truth_table[x]) for x in comp.inputs]
    cells = (np.arange(len(want)), want)
    ideal_success = ideal_probs[cells].tolist()
    actual_success = _readout(actual, effects)[cells].tolist()
    inaccuracy = _trace_norms(actual - ideal).tolist()
    records = [InputRecord(*row) for row in zip(comp.inputs, ideal_success, actual_success, inaccuracy)]
    p = max(1.0 - r.ideal_success for r in records)
    alpha = max(r.inaccuracy_x for r in records)
    for r in records:
        failure = 1.0 - r.actual_success
        if failure > p + alpha + BOUND_SLACK:
            raise TheoremViolationError(
                f"combined bound violated at input {r.x!r}: "
                f"failure {failure:.12g} > p + alpha = {p + alpha:.12g} + {BOUND_SLACK:.0e}; "
                "this indicates defective numerics, not a bad input"
            )
    worst_margin = min(p + alpha - (1.0 - r.actual_success) for r in records)
    return QccReport(
        per_input=tuple(records),
        alpha=alpha,
        p=p,
        bound_holds=True,
        worst_margin=worst_margin,
    )


def mix_error_state(
    ideal_out: DensityMatrix, rho_err: DensityMatrix, eps_qc: float
) -> DensityMatrix:
    """Convex mixture (1 - eps) ideal + eps err modeling residual circuit error."""
    e = float(eps_qc)
    if not (0.0 <= e <= 1.0):
        raise BadProbabilityError(f"eps_qc {e} outside [0, 1]")
    if ideal_out.dim != rho_err.dim:
        raise DimensionMismatchError(
            f"state dims differ: {ideal_out.dim} vs {rho_err.dim}"
        )
    return DensityMatrix((1.0 - e) * ideal_out.entries + e * rho_err.entries)


def mixing_inaccuracy_bound_check(
    ideal_out: DensityMatrix, rho_err: DensityMatrix, eps_qc: float
) -> MixingCheck:
    """Check the mixture's inaccuracy against its generic 2*eps ceiling.

    measured = ||mixture - ideal||_1, which equals eps * ||err - ideal||_1
    and therefore never exceeds 2*eps.  holds is always true for valid
    states; a false value would mean broken numerics.
    """
    mixture = mix_error_state(ideal_out, rho_err, eps_qc)
    measured = trace_norm(mixture.entries - ideal_out.entries)
    bound = 2.0 * float(eps_qc)
    return MixingCheck(measured=measured, bound=bound, holds=measured <= bound + BOUND_SLACK)
