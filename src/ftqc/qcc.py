"""Certification that a noisy implementation stays close to its ideal map.

The central quantity is the implementation inaccuracy at a state rho:

    || P(rho) - G(rho) ||_1

where G is the ideal map and P the noisy implementation of the same
circuit.  Its maximum alpha over a computation's input states combines with
the intrinsic failure bound p into a per-input failure bound p + alpha.
That combined bound is a theorem: if an instance violates it the numerics
are broken, so the check raises instead of reporting a false flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import Circuit, KrausChannel, NoiseModel, apply, compile_noisy, evolve
from .densmat import DensityMatrix, effect_probability, pure_state, trace_norm
from .errors import (
    BadProbabilityError,
    DimensionMismatchError,
    DomainError,
    TheoremViolationError,
)
from .kitaev import OutcomeDistribution, OverallComputation

# Absolute slack on the favorable side of every bound check in this module.
BOUND_SLACK = 1e-9

# Largest trial count alpha_random_search accepts (10**9 trials would run for years).
SEARCH_TRIAL_CAP = 10 ** 5


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
        return {
            "per_input": [
                {
                    "x": r.x,
                    "ideal_success": r.ideal_success,
                    "actual_success": r.actual_success,
                    "inaccuracy_x": r.inaccuracy_x,
                }
                for r in self.per_input
            ],
            "alpha": self.alpha,
            "p": self.p,
            "bound_holds": self.bound_holds,
            "worst_margin": self.worst_margin,
        }


class MixingCheck(NamedTuple):
    measured: float
    bound: float
    holds: bool


def implementation_inaccuracy(
    P: KrausChannel, G: KrausChannel, link: LinkingMaps, rho: DensityMatrix
) -> float:
    """Trace-norm gap between the implemented and ideal outputs at one state."""
    if G.dim_in != rho.dim:
        raise DimensionMismatchError(
            f"ideal channel expects dim {G.dim_in}, state has dim {rho.dim}"
        )
    if P.dim_in != rho.dim:
        raise DimensionMismatchError(
            f"implemented channel expects dim {P.dim_in}, state has dim {rho.dim}"
        )
    actual = apply(P, rho)
    ideal = apply(G, rho)
    return trace_norm(actual.entries - ideal.entries)


def alpha_random_search(
    P: KrausChannel, G: KrausChannel, link: LinkingMaps, trials: int, seed: int
) -> float:
    """Estimate the all-states supremum by sampling Haar-random pure states.

    A lower bound on the true supremum; reported alongside the input-level
    alpha, never used in the certified bound.  Counter-based generator keyed
    by (seed, trial) so serial and parallel evaluation orders agree.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if trials > SEARCH_TRIAL_CAP:
        raise DomainError(f"trials = {trials} exceeds the cap of {SEARCH_TRIAL_CAP}")
    dim = G.dim_in
    key_hi = int(seed) % (2 ** 64)
    worst = 0.0
    for t in range(trials):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([key_hi, t], dtype=np.uint64))
        )
        v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        v = v / np.linalg.norm(v)
        worst = max(worst, implementation_inaccuracy(P, G, link, pure_state(v)))
    return worst


def implemented_channel(
    circ: Circuit, noise: NoiseModel, link: LinkingMaps = LinkingMaps()
) -> KrausChannel:
    """The noisy compiled map; the ancilla of `link` carries no gate."""
    return compile_noisy(circ, noise)


def _evolve_inputs(
    circ: Circuit, noise: NoiseModel, comp: OverallComputation
) -> dict[str, DensityMatrix]:
    """Every input state pushed through the noisy circuit in one batch."""
    if circ.dim != comp.dim:
        raise DimensionMismatchError(
            f"circuit dim {circ.dim} does not match computation dim {comp.dim}"
        )
    outs = evolve(circ, noise, np.stack([comp.init[x].entries for x in comp.inputs]))
    return {x: DensityMatrix(out) for x, out in zip(comp.inputs, outs)}


def _success_probabilities(
    outputs: dict[str, DensityMatrix], comp: OverallComputation
) -> dict[str, float]:
    """Pr_x(F(x)) for every input, read through the full outcome distribution."""
    return {
        x: OutcomeDistribution(
            {y: effect_probability(outputs[x], comp.povm[y]) for y in comp.outputs}
        ).probabilities[comp.truth_table[x]]
        for x in comp.inputs
    }


def certify_combined_bound(
    circ: Circuit,
    noise: NoiseModel,
    comp: OverallComputation,
    link: LinkingMaps = LinkingMaps(),
) -> QccReport:
    """Run the full certification for one computation under one noise model.

    The input states are evolved once through the ideal circuit and once
    through the noisy one.  p comes from the ideal outputs, alpha from the
    trace distance between the two outputs of every input, and each input's
    actual failure probability is checked against p + alpha.  The
    inequality holds by theorem; a violation beyond the 1e-9 slack raises
    TheoremViolationError instead of returning a report.
    """
    ideal_outs = _evolve_inputs(circ, NoiseModel(kind="none"), comp)
    actual_outs = _evolve_inputs(circ, noise, comp)
    ideal_success = _success_probabilities(ideal_outs, comp)
    p = max(1.0 - s for s in ideal_success.values())
    records = []
    for x in comp.inputs:
        effect = comp.povm[comp.truth_table[x]]
        ideal_out, actual_out = ideal_outs[x], actual_outs[x]
        records.append(
            InputRecord(
                x=x,
                ideal_success=ideal_success[x],
                actual_success=effect_probability(actual_out, effect),
                inaccuracy_x=trace_norm(actual_out.entries - ideal_out.entries),
            )
        )
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
