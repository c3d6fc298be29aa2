"""Validated density-operator primitives on dense complex matrices.

The tolerances live here with the one implementation of each check, and
each check takes a (B, d, d) stack: certification and the random search
check whole stacks of evolved outputs, the two wrapper types, ``trace_norm``
and ``effect_probability`` a stack of one.  No silent repair is performed:
a matrix either passes validation as given or is rejected.  Every matrix
given to the package passes ``_as_square_matrix``, and every matrix read
from a JSON config passes ``_matrix_from_json``.

Norm convention: ``trace_norm`` is the plain Schatten 1-norm, the sum of
absolute eigenvalues, with no factor 1/2.  Two orthogonal pure states are
at distance 2 under this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _check_finite(m)
    return m


def _is_json_number(x, kinds=(int, float)) -> bool:
    # bool is a subclass of int, but JSON true/false are not numbers
    return isinstance(x, kinds) and not isinstance(x, bool)


def _complex_from_json(entry) -> complex:
    try:
        if _is_json_number(entry):
            return complex(entry)
        if isinstance(entry, list) and len(entry) == 2 and all(map(_is_json_number, entry)):
            return complex(entry[0], entry[1])
    except OverflowError:
        raise ConfigError("matrix entry is beyond the float range") from None
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


def _freeze(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    out.flags.writeable = False
    return out


# --- checks on (B, d, d) stacks; a failing stack reports its worst matrix ---

def _check_finite(stack: np.ndarray) -> None:
    # NaN passes every `defect > tol` check downstream, so refuse it first
    if not np.isfinite(stack).all():
        raise DomainError("matrix has a non-finite (nan or inf) entry")


def _check_hermitian(stack: np.ndarray) -> None:
    _check_finite(stack)
    # |M - M+| entrywise from real temporaries, half the size of complex ones
    re, im = stack.real, stack.imag
    gap = re - re.swapaxes(1, 2)
    defect = np.hypot(gap, im + im.swapaxes(1, 2), out=gap).max()
    if defect > VALIDATION_TOL:
        raise NotHermitianError(f"Hermiticity defect {defect:.3e} exceeds {VALIDATION_TOL:.0e}")


def _check_states(stack: np.ndarray) -> None:
    """Every matrix is Hermitian, of unit trace and positive semidefinite."""
    _check_hermitian(stack)
    tr = np.trace(stack, axis1=1, axis2=2)
    i = np.argmax(np.abs(tr - 1.0))
    if abs(tr[i] - 1.0) > VALIDATION_TOL:
        raise NotUnitTraceError(f"trace is {complex(tr[i]):.12g}, expected 1")
    lo = np.linalg.eigvalsh(stack)[:, 0].min()
    if lo < -VALIDATION_TOL:
        raise NotPositiveError(f"smallest eigenvalue {lo:.3e} below -{VALIDATION_TOL:.0e}")


def _check_effects(effects: np.ndarray) -> None:
    """Every matrix of a Hermitian stack has its spectrum in [0, 1]."""
    eigs = np.linalg.eigvalsh(effects)
    lo, hi = eigs[:, 0], eigs[:, -1]
    i = np.argmax(np.maximum(-lo, hi - 1.0))
    if lo[i] < -VALIDATION_TOL or hi[i] > 1.0 + VALIDATION_TOL:
        raise NotAnEffectError(f"effect spectrum [{lo[i]:.3e}, {hi[i]:.3e}] leaves [0, 1]")


def _readout(states: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """(B, Y) probabilities tr(E_y rho_b), clamped to [0, 1] against round-off."""
    p = np.einsum("yij,bji->by", effects, states, optimize=True).real
    # maximum(p, 0.0), unlike clip, reads -0.0 as 0.0
    return np.minimum(np.maximum(p, 0.0), 1.0)


def _trace_norms(stack: np.ndarray) -> np.ndarray:
    """Schatten 1-norms of a Hermitian stack, |eigenvalues| < EIGENVALUE_ZERO_TOL flushed."""
    _check_hermitian(stack)
    eigs = np.linalg.eigvalsh(stack)
    return np.abs(np.where(np.abs(eigs) < EIGENVALUE_ZERO_TOL, 0.0, eigs)).sum(axis=1)


# --- one-matrix wrappers -------------------------------------------------------

@dataclass(frozen=True)
class HermitianOperator:
    """A square complex matrix checked to be Hermitian within VALIDATION_TOL."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_matrix(self.entries)
        _check_hermitian(m[np.newaxis])
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


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
        _check_states(m[np.newaxis])
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def make_state(entries) -> DensityMatrix:
    """Construct a DensityMatrix from anything array-like, with full validation."""
    return DensityMatrix(np.asarray(entries, dtype=complex))


def trace_norm(op) -> float:
    """Schatten 1-norm of a Hermitian operator (sum of |eigenvalues|).

    Accepts a HermitianOperator, a DensityMatrix, or a raw array (validated
    as Hermitian first).  Eigenvalues smaller in magnitude than
    EIGENVALUE_ZERO_TOL are flushed to zero before summing, so the distance
    between two copies of the same state is exactly 0.0.

    Note the convention: no factor 1/2.  Orthogonal pure states are at
    distance 2.
    """
    m = op.entries if isinstance(op, (HermitianOperator, DensityMatrix)) else op
    return float(_trace_norms(_as_square_matrix(m)[np.newaxis])[0])


def effect_probability(state: DensityMatrix, effect: HermitianOperator) -> float:
    """Outcome probability tr(E rho) for a measurement effect E.

    E must satisfy 0 <= E <= I within VALIDATION_TOL on its spectrum.
    The result is clamped to [0, 1] to absorb float round-off.
    """
    if effect.dim != state.dim:
        raise DimensionMismatchError(
            f"effect dim {effect.dim} does not match state dim {state.dim}"
        )
    e = effect.entries[np.newaxis]
    _check_effects(e)
    return float(_readout(state.entries[np.newaxis], e)[0, 0])
