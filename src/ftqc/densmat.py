"""Validated density-operator primitives on dense complex matrices.

Everything downstream (channels, computations, certification) goes through
the two wrapper types defined here, so the validation tolerances live here
too and are applied exactly once per construction.  No silent repair is
performed: a matrix either passes validation as given or is rejected.
Every matrix, gate matrices included, passes ``_as_square_matrix``, and
every matrix read from a JSON config passes ``_matrix_from_json``.

Norm convention: ``trace_norm`` is the plain Schatten 1-norm, the sum of
absolute eigenvalues, with no factor 1/2.  Two orthogonal pure states are
at distance 2 under this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    NotAnEffectError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
)

# Validation tolerance used across the package for Hermiticity, trace,
# positivity, unitarity and POVM completeness checks.
VALIDATION_TOL = 1e-9

# Eigenvalues with absolute value below this are treated as exact zeros
# when summing trace norms.
EIGENVALUE_ZERO_TOL = 1e-12

# Dense simulation cap: 2**8 = 256, i.e. at most 8 qubits.
MAX_DIM = 256


def _as_square_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[0]
    if dim < 1:
        raise DimensionMismatchError("matrix must be at least 1x1")
    if dim > MAX_DIM:
        raise DimensionMismatchError(
            f"dimension {dim} exceeds the dense-simulation cap {MAX_DIM}"
        )
    # NaN passes every `defect > tol` check downstream, so refuse it here
    if not np.isfinite(m).all():
        raise DomainError("matrix has a non-finite (nan or inf) entry")
    return m


def _is_json_number(x, kinds=(int, float)) -> bool:
    # bool is a subclass of int, but JSON true/false are not numbers
    return isinstance(x, kinds) and not isinstance(x, bool)


def _complex_from_json(entry) -> complex:
    if _is_json_number(entry):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2 and all(map(_is_json_number, entry)):
        return complex(entry[0], entry[1])
    raise ConfigError(f"matrix entry {entry!r} is neither a number nor [re, im]")


def _matrix_from_json(rows, what: str) -> np.ndarray:
    """Decode a JSON matrix: a nonempty list of equal-length rows whose
    entries are numbers or [re, im] pairs.  `what` names it in errors."""
    if (
        not isinstance(rows, list)
        or not rows
        or not all(isinstance(r, list) and len(r) == len(rows[0]) for r in rows)
    ):
        raise ConfigError(f"{what} must be a nonempty list of equal-length rows")
    return np.array([[_complex_from_json(e) for e in row] for row in rows], dtype=complex)


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def _freeze(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class HermitianOperator:
    """A square complex matrix checked to be Hermitian within VALIDATION_TOL."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_matrix(self.entries)
        defect = _hermiticity_defect(m)
        if defect > VALIDATION_TOL:
            raise NotHermitianError(
                f"Hermiticity defect {defect:.3e} exceeds {VALIDATION_TOL:.0e}"
            )
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def spectrum_range(self) -> tuple[float, float]:
        """Smallest and largest eigenvalue, computed once per operator."""
        eigs = np.linalg.eigvalsh(self.entries)
        return float(eigs[0]), float(eigs[-1])


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state: Hermitian, unit trace, positive semidefinite.

    Tolerances: Hermiticity defect and |tr - 1| at most 1e-9, smallest
    eigenvalue at least -1e-9.  Slightly negative eigenvalues from float
    round-off are accepted but never rewritten.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_matrix(self.entries)
        defect = _hermiticity_defect(m)
        if defect > VALIDATION_TOL:
            raise NotHermitianError(
                f"Hermiticity defect {defect:.3e} exceeds {VALIDATION_TOL:.0e}"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > VALIDATION_TOL:
            raise NotUnitTraceError(f"trace is {tr:.12g}, expected 1")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -VALIDATION_TOL:
            raise NotPositiveError(
                f"smallest eigenvalue {lo:.3e} below -{VALIDATION_TOL:.0e}"
            )
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def make_state(entries) -> DensityMatrix:
    """Construct a DensityMatrix from anything array-like, with full validation."""
    return DensityMatrix(np.asarray(entries, dtype=complex))


def pure_state(amplitudes) -> DensityMatrix:
    """Rank-1 state |v><v| from a normalized amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatchError(f"amplitude vector must be 1-d, got shape {v.shape}")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > VALIDATION_TOL:
        raise NotUnitTraceError(f"amplitude vector has norm {nrm:.12g}, expected 1")
    return DensityMatrix(np.outer(v, v.conj()))


def trace_norm(op) -> float:
    """Schatten 1-norm of a Hermitian operator (sum of |eigenvalues|).

    Accepts a HermitianOperator, a DensityMatrix, or a raw array (validated
    as Hermitian first).  Eigenvalues smaller in magnitude than
    EIGENVALUE_ZERO_TOL are flushed to zero before summing, so the distance
    between two copies of the same state is exactly 0.0.

    Note the convention: no factor 1/2.  Orthogonal pure states are at
    distance 2.
    """
    if isinstance(op, (HermitianOperator, DensityMatrix)):
        m = op.entries
    else:
        m = HermitianOperator(op).entries
    eigs = np.linalg.eigvalsh(m)
    eigs = np.where(np.abs(eigs) < EIGENVALUE_ZERO_TOL, 0.0, eigs)
    return float(np.sum(np.abs(eigs)))


def effect_probability(state: DensityMatrix, effect: HermitianOperator) -> float:
    """Outcome probability tr(E rho) for a measurement effect E.

    E must satisfy 0 <= E <= I within VALIDATION_TOL on its spectrum.
    The result is clamped to [0, 1] to absorb float round-off.
    """
    if effect.dim != state.dim:
        raise DimensionMismatchError(
            f"effect dim {effect.dim} does not match state dim {state.dim}"
        )
    lo, hi = effect.spectrum_range
    if lo < -VALIDATION_TOL or hi > 1.0 + VALIDATION_TOL:
        raise NotAnEffectError(f"effect spectrum [{lo:.3e}, {hi:.3e}] leaves [0, 1]")
    p = float(np.real(np.trace(effect.entries @ state.entries)))
    return min(1.0, max(0.0, p))
