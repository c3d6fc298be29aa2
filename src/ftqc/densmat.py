"""Validated density-operator primitives on dense complex matrices.

The tolerance lives here with the one implementation of each check
(Hermiticity, trace, positivity, effect spectrum, POVM completeness,
unitarity of a gate matrix or the search's G, outcome totals), and every
verdict refuses a NaN: run under ``np.errstate``, an overflowing defect is
refused, as inf or NaN, with no warning.  The state and effect checks take a
(B, d, d) stack: certification and the random search check whole stacks of
evolved outputs, the wrappers, ``trace_norm`` and ``effect_probability`` a
stack of one.  No silent repair is performed: a matrix either passes
validation as given or is rejected.  Every matrix given to the package
passes ``_as_square_matrix``, every stack ``_as_complex``, and a function
that takes a wrapper refuses anything else (``_check_type``).  A
``DensityMatrix`` is a ``HermitianOperator`` whose class check also asks for
unit trace and positivity.  The simulator's types, the wrappers and the
gates, circuits, noise models, computations and reports built on them, are
``_ReadOnly``: each attribute is set once, by the validating ``__init__``,
and every array is stored read-only, in a pickled or deep-copied value too.
They compare and hash by identity: == between arrays has no single truth
value.

Norm convention: ``trace_norm`` is the plain Schatten 1-norm, the sum of
absolute eigenvalues, with no factor 1/2: two orthogonal pure states are at
distance 2.  Every trace distance between states is taken in one step,
``_distances``, which checks each operand stack as states and not their
difference: two states each within the Hermiticity tolerance may differ by
twice it.  The norm is that of the Hermitian part (D + D+) / 2 of the
difference D, not of the lower triangle of D that ``eigvalsh`` reads.
"""

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NotAnEffectError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
    NotUnitaryError,
    _SetOnce,
    _check_type,
    _is_index,
    _shown,
)

# Validation tolerance of every check below.
VALIDATION_TOL = 1e-9

# Eigenvalues with absolute value below this are treated as exact zeros
# when summing trace norms.
EIGENVALUE_ZERO_TOL = 1e-12

# Dense simulation cap: at most 8 qubits, dimension 2**8 = 256.
MAX_QUBITS = 8
MAX_DIM = 2 ** MAX_QUBITS


def _as_complex(entries, what: str) -> np.ndarray:
    try:
        return np.asarray(entries, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged rows, a string, an object
        raise DomainError(f"not {what} of numbers: {exc}") from None


def _as_square_matrix(entries) -> np.ndarray:
    m = _as_complex(entries, "a matrix")
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


def _check_width(num_qubits, error) -> int:
    """A register's qubit count as a Python int, checked before anything of size 2**num_qubits exists."""
    if not _is_index(num_qubits):
        raise error(f"num_qubits must be an integer, got {_shown(num_qubits)}")
    if num_qubits < 1:
        raise error(f"num_qubits {_shown(num_qubits)} is below 1")
    # the power stays unevaluated, since a long label makes it too big to print
    if num_qubits > MAX_QUBITS:
        raise error(f"dimension 2**{_shown(num_qubits)} exceeds the dense-simulation cap {MAX_DIM}")
    return int(num_qubits)


def _check_qubits(qubits, what: str, error, num_qubits=None) -> tuple[int, ...]:
    """qubits as a nonempty tuple of distinct Python ints in [0, num_qubits)
    (num_qubits None: no upper end); error names them `what`."""
    qubits = tuple(qubits) if np.iterable(qubits) else qubits
    if not isinstance(qubits, tuple) or not all(map(_is_index, qubits)):
        raise error(f"{what} must be integers, got {_shown(qubits)}")
    qubits = tuple(map(int, qubits))
    if not qubits:
        raise error(f"{what} must be nonempty")
    if len(set(qubits)) != len(qubits):
        raise error(f"duplicate {what} in {_shown(qubits)}")
    if min(qubits) < 0 or (num_qubits is not None and max(qubits) >= num_qubits):
        width = "" if num_qubits is None else f" for {num_qubits} qubit(s)"
        raise error(f"{what} {_shown(qubits)} out of range{width}")
    return qubits


class _ReadOnly(_SetOnce):
    """Set-once slots; an array is stored read-only, so a constructor hands over one it owns."""

    __slots__ = ()

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


# --- checks; a failing (B, d, d) stack reports its worst matrix ---

def _check_defect(defect, what: str, error) -> None:
    if not defect <= VALIDATION_TOL:  # a NaN defect is refused too
        raise error(f"{what} defect {defect:.3e} exceeds {VALIDATION_TOL:.0e}")


def _check_near_one(values: np.ndarray, what: str, error) -> None:
    i = np.argmax(np.abs(values - 1.0))  # the entry farthest from 1, a NaN first
    if not abs(values[i] - 1.0) <= VALIDATION_TOL:
        raise error(f"{what} {values[i].item():.12g}, expected 1")


def _check_finite(stack: np.ndarray) -> None:
    # eigvalsh cannot take a nan or inf, so refuse one first, under its own text
    if not np.isfinite(stack).all():
        raise DomainError("matrix has a non-finite (nan or inf) entry")


@np.errstate(over="ignore", invalid="ignore")
def _check_hermitian(stack: np.ndarray) -> None:
    # |M - M+| entrywise from real temporaries, half the size of complex ones
    re, im = stack.real, stack.imag
    gap = re - re.swapaxes(1, 2)
    _check_defect(np.hypot(gap, im + im.swapaxes(1, 2), out=gap).max(), "Hermiticity", NotHermitianError)


@np.errstate(over="ignore", invalid="ignore")
def _check_states(stack: np.ndarray) -> None:
    """Every matrix is finite, Hermitian, of unit trace and positive semidefinite."""
    _check_finite(stack)
    _check_hermitian(stack)
    _check_near_one(np.trace(stack, axis1=1, axis2=2), "trace is", NotUnitTraceError)
    lo = np.linalg.eigvalsh(stack)[:, 0].min()
    if not lo >= -VALIDATION_TOL:
        raise NotPositiveError(f"smallest eigenvalue {lo:.3e} below -{VALIDATION_TOL:.0e}")


def _check_effects(effects: np.ndarray) -> None:
    """Every matrix of a Hermitian stack has its spectrum in [0, 1]."""
    eigs = np.linalg.eigvalsh(effects)
    lo, hi = eigs[:, 0], eigs[:, -1]
    i = np.argmax(np.maximum(-lo, hi - 1.0))
    if not (lo[i] >= -VALIDATION_TOL and hi[i] <= 1.0 + VALIDATION_TOL):
        raise NotAnEffectError(f"effect spectrum [{lo[i]:.3e}, {hi[i]:.3e}] leaves [0, 1]")


@np.errstate(over="ignore", invalid="ignore")
def _check_povm(povm: np.ndarray) -> None:
    _check_hermitian(povm)
    defect = np.abs(povm.sum(axis=0) - np.eye(povm.shape[1])).max()
    _check_defect(defect, "POVM completeness", NotAnEffectError)
    _check_effects(povm)


@np.errstate(over="ignore", invalid="ignore")
def _check_unitary(m: np.ndarray, what: str) -> None:
    _check_defect(np.abs(m.conj().T @ m - np.eye(len(m))).max(), f"{what} unitarity", NotUnitaryError)


def _readout(states: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """(B, Y) probabilities tr(E_y rho_b), clamped to [0, 1] against round-off."""
    p = np.einsum("yij,bji->by", effects, states, optimize=True).real
    # maximum(p, 0.0), unlike clip, reads -0.0 as 0.0
    return np.minimum(np.maximum(p, 0.0), 1.0)


def _trace_norms(stack: np.ndarray) -> np.ndarray:
    """Schatten 1-norms of a checked Hermitian stack, |eigenvalues| < EIGENVALUE_ZERO_TOL flushed."""
    eigs = np.linalg.eigvalsh(stack)
    return np.abs(np.where(np.abs(eigs) < EIGENVALUE_ZERO_TOL, 0.0, eigs)).sum(axis=1)


def _distances(actual: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """Trace distances between two (B, d, d) stacks, each checked as states."""
    _check_states(actual)
    _check_states(ideal)
    diff = actual - ideal  # its Hermitian part, as eigvalsh reads the lower triangle alone
    diff += diff.conj().swapaxes(1, 2)
    diff *= 0.5
    return _trace_norms(diff)


# --- one-matrix wrappers -------------------------------------------------------

class HermitianOperator(_ReadOnly):
    """A square complex matrix checked Hermitian within VALIDATION_TOL; its one member is ``entries``."""

    __slots__ = ("entries",)
    _check = staticmethod(_check_hermitian)  # a subclass narrows it

    def __init__(self, entries):
        m = _as_square_matrix(entries)
        self._check(m[np.newaxis])
        self.entries = m.copy()


class DensityMatrix(HermitianOperator):
    """A quantum state: Hermitian, unit trace, positive semidefinite.

    Tolerances: Hermiticity defect and |tr - 1| at most 1e-9, smallest
    eigenvalue at least -1e-9.  Slightly negative eigenvalues from float
    round-off are accepted but never rewritten.
    """

    __slots__ = ()
    _check = staticmethod(_check_states)


def trace_norm(op) -> float:
    """Schatten 1-norm of a Hermitian operator (sum of |eigenvalues|).

    Accepts a HermitianOperator, a DensityMatrix, or a raw array (validated
    as Hermitian first).  Eigenvalues smaller in magnitude than
    EIGENVALUE_ZERO_TOL are flushed to zero before summing, so the distance
    between two copies of the same state is exactly 0.0.  No factor 1/2:
    orthogonal pure states are at distance 2.
    """
    m = (op if isinstance(op, HermitianOperator) else HermitianOperator(op)).entries
    return float(_trace_norms(m[np.newaxis])[0])


def effect_probability(state: DensityMatrix, effect: HermitianOperator) -> float:
    """Outcome probability tr(E rho) for a measurement effect E.

    E must satisfy 0 <= E <= I within VALIDATION_TOL on its spectrum.
    The result is clamped to [0, 1] to absorb float round-off.
    """
    rho = _check_type(state, (DensityMatrix,), "state").entries
    e = _check_type(effect, (HermitianOperator, DensityMatrix), "effect").entries
    if len(e) != len(rho):
        raise DimensionMismatchError(f"effect dim {len(e)} does not match state dim {len(rho)}")
    _check_effects(e[np.newaxis])
    return float(_readout(rho[np.newaxis], e[np.newaxis])[0, 0])
