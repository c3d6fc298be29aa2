"""Gates, circuits, noise models and noisy evolution.

Tensor conventions match densmat: qubit 0 is the leftmost, most significant
factor, so the basis index of a bitstring is int(bits, 2).  Every gate holds
its unitary in ``matrix``; a named gate's is its read-only table entry.

``evolve`` is the one path that pushes operators through a noisy circuit.
It holds a stack of d x d operators as one qubit tensor, a row axis and a
column axis per qubit, so each gate of any width acts by a tensordot on
its own target axes and no full-register unitary is built.  Depolarizing
noise after a gate acts through its closed form: a partial trace over the
targets and an in-place update of the target diagonal.  ``compile_ideal``
multiplies the gates into the one unitary U of the noiseless circuit, the
verifier's only ideal map: certification reads its ideal outputs as
U rho U+ and the random search applies U to pure vectors.
"""

import numpy as np

from .densmat import (
    _as_complex,
    _as_square_matrix,
    _check_qubits,
    _check_unitary,
    _check_width,
    _ReadOnly,
)
from .errors import (
    BadStrengthError,
    CircuitError,
    DimensionMismatchError,
    _check_type,
    _check_unit_interval,
    _shown,
)

_GATE_TABLE: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}


class Gate(_ReadOnly):
    """One circuit element: a named gate or an explicit unitary, held in matrix.

    matrix is read-only: a named gate's table entry (the name is not kept), or
    a checked copy of the caller's.  targets lists the qubits it acts on, in
    its own factor order (for CNOT the first target is the control).
    """

    __slots__ = ("targets", "matrix")

    def __init__(self, targets: tuple[int, ...], name: str | None = None,
                 matrix: np.ndarray | None = None):
        targets = _check_qubits(targets, "gate targets", CircuitError)
        if (name is None) == (matrix is None):
            raise CircuitError("specify exactly one of name or matrix")
        if name is not None:
            if not isinstance(name, str) or name not in _GATE_TABLE:
                raise CircuitError(f"unknown gate {_shown(name)}; known: {sorted(_GATE_TABLE)}")
            matrix = _GATE_TABLE[name]
            arity = matrix.shape[0].bit_length() - 1
            if arity != len(targets):
                raise CircuitError(f"gate {name} acts on {arity} qubit(s), got {len(targets)} targets")
        else:
            matrix = _as_square_matrix(matrix).copy()
            if matrix.shape[0] != 2 ** len(targets):
                raise CircuitError(f"matrix dim {matrix.shape[0]} does not match 2**{len(targets)} targets")
            _check_unitary(matrix, "gate matrix")
        self.targets, self.matrix = targets, matrix


class Circuit(_ReadOnly):
    """A register of num_qubits qubits and the gates applied to it, in order."""

    __slots__ = ("num_qubits", "gates")

    def __init__(self, num_qubits: int, gates: tuple[Gate, ...] = ()):
        num_qubits = _check_width(num_qubits, CircuitError)
        if not np.iterable(gates):
            raise CircuitError(f"gates must be a sequence of Gate instances, got {_shown(gates)}")
        gates = tuple(gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise CircuitError("gates must be Gate instances")
            _check_qubits(g.targets, "gate targets", CircuitError, num_qubits)
        self.num_qubits, self.gates = num_qubits, gates

    @property
    def dim(self) -> int:
        return 2 ** self.num_qubits


class NoiseModel(_ReadOnly):
    """Per-gate noise: kind 'none', or 'depolarizing' with strength in [0, 1]; only the strength is kept."""

    __slots__ = ("strength",)

    def __init__(self, kind: str, strength: float = 0.0):
        if kind not in ("none", "depolarizing"):
            raise BadStrengthError(f"unknown noise kind {kind!r}")
        s = _check_unit_interval("strength", strength, lo_open=False, hi_open=False,
                                 error=BadStrengthError)
        if kind == "none" and s != 0.0:
            raise BadStrengthError("noise kind 'none' must have strength 0")
        self.strength = s


def _act(t: np.ndarray, g: np.ndarray, axes) -> np.ndarray:
    """Multiply a k-qubit matrix into tensor t along k of its qubit axes.

    Factor order inside g follows the order of `axes`, so CNOT on row axes
    of qubits (1, 0) has its control on qubit 1.  Returns a view of the
    fresh tensordot output with the k gate outputs moved back to `axes`.
    """
    k = len(axes)
    out = np.tensordot(g.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, range(k), axes)


def evolve(circ: Circuit, noise: NoiseModel, states) -> np.ndarray:
    """Push a (B, d, d) stack of operators through the noisy circuit.

    The stack is held as one (B, 2, ..., 2) tensor with a row axis and a
    column axis per qubit.  Each gate conjugates every operator
    (M -> U M U+) by one tensordot on its row axes and one on its column
    axes.  Depolarizing noise of strength s on the targets T then acts by
    its closed form (1-s) M + s tr_T(M) (x) I_T / d_T: the partial trace is
    taken first, the gate output is scaled in place, and s/d_T tr_T(M) is
    added onto the diagonal view of the target axes.  Returns the evolved
    stack as a raw array; callers validate what they read as states.
    """
    _check_type(circ, (Circuit,), "circ")
    _check_type(noise, (NoiseModel,), "noise")
    stack = _as_complex(states, "a stack")
    if stack.ndim != 3 or stack.shape[1:] != (circ.dim, circ.dim):
        raise DimensionMismatchError(
            f"expected a (B, {circ.dim}, {circ.dim}) stack, got shape {stack.shape}"
        )
    n, s = circ.num_qubits, noise.strength
    t = stack.reshape((stack.shape[0],) + (2,) * (2 * n))
    for g in circ.gates:
        rows = [1 + q for q in g.targets]
        t = _act(t, g.matrix, rows)
        t = _act(t, g.matrix.conj(), [n + r for r in rows])
        if s:
            # einsum sublists: each target column axis reuses its row label
            labels = [0, *range(1, n + 1), *(r if r in rows else n + r for r in range(1, n + 1))]
            kept = [a for a in labels[1:] if a not in rows]
            traced = np.einsum(t, labels, [0, *kept])
            t *= 1.0 - s
            diagonal = np.einsum(t, labels, [0, *kept, *rows])
            diagonal += (s / 2 ** len(rows)) * traced.reshape(traced.shape + (1,) * len(rows))
            del diagonal, traced  # a live view would keep this output through the next gate
    return t.reshape(stack.shape)


def compile_ideal(circ: Circuit) -> np.ndarray:
    """The noiseless circuit as one read-only d x d unitary on the register."""
    _check_type(circ, (Circuit,), "circ")
    u = np.eye(circ.dim, dtype=complex).reshape((2,) * (2 * circ.num_qubits))
    for g in circ.gates:
        u = _act(u, g.matrix, g.targets)
    u = np.ascontiguousarray(u.reshape(circ.dim, circ.dim))
    u.flags.writeable = False
    return u
