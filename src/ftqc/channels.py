"""Gates, circuits, noise models and noisy evolution.

Tensor conventions match densmat: qubit 0 is the leftmost, most significant
factor, so the basis index of a bitstring is int(bits, 2).

``evolve`` is the one path that pushes operators through a noisy circuit.
Each gate acts by a tensordot on its own target axes, so no full-register
unitary is built, and depolarizing noise after it acts through its closed
form.  ``compile_ideal`` multiplies the gates into the one unitary of the
noiseless circuit, which the random search applies to pure vectors.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

from .densmat import (
    VALIDATION_TOL,
    _as_square_matrix,
    _freeze,
    _is_json_number,
    _matrix_from_json,
)
from .errors import (
    BadStrengthError,
    CircuitError,
    ConfigError,
    DimensionMismatchError,
    NotUnitaryError,
)

MAX_QUBITS = 8

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


def _unitarity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


@dataclass(frozen=True)
class Gate:
    """One circuit element: either a named gate or an explicit unitary.

    targets lists the qubits the gate acts on, in the gate's own factor
    order (for CNOT the first target is the control).
    """

    targets: tuple[int, ...]
    name: str | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(targets) == 0:
            raise CircuitError("gate needs at least one target")
        if len(set(targets)) != len(targets):
            raise CircuitError(f"duplicate targets {targets}")
        if any(t < 0 for t in targets):
            raise CircuitError(f"negative target in {targets}")
        if (self.name is None) == (self.matrix is None):
            raise CircuitError("specify exactly one of name or matrix")
        if self.name is not None:
            if self.name not in _GATE_TABLE:
                raise CircuitError(
                    f"unknown gate {self.name!r}; known: {sorted(_GATE_TABLE)}"
                )
            arity = _GATE_TABLE[self.name].shape[0].bit_length() - 1
            if arity != len(targets):
                raise CircuitError(
                    f"gate {self.name} acts on {arity} qubit(s), got {len(targets)} targets"
                )
        else:
            m = _as_square_matrix(self.matrix)
            want = 2 ** len(targets)
            if m.shape[0] != want:
                raise CircuitError(
                    f"matrix dim {m.shape[0]} does not match 2**{len(targets)} targets"
                )
            defect = _unitarity_defect(m)
            if defect > VALIDATION_TOL:
                raise NotUnitaryError(
                    f"gate matrix unitarity defect {defect:.3e} exceeds {VALIDATION_TOL:.0e}"
                )
            object.__setattr__(self, "matrix", _freeze(m))

    def unitary(self) -> np.ndarray:
        return _GATE_TABLE[self.name] if self.name is not None else self.matrix


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (1 <= self.num_qubits <= MAX_QUBITS):
            raise CircuitError(
                f"num_qubits {self.num_qubits} outside [1, {MAX_QUBITS}]"
            )
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if not isinstance(g, Gate):
                raise CircuitError("gates must be Gate instances")
            if max(g.targets) >= self.num_qubits:
                raise CircuitError(
                    f"target {max(g.targets)} out of range for {self.num_qubits} qubits"
                )

    @property
    def dim(self) -> int:
        return 2 ** self.num_qubits


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate noise: kind 'none', or 'depolarizing' with strength in [0, 1]."""

    kind: str
    strength: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "depolarizing"):
            raise BadStrengthError(f"unknown noise kind {self.kind!r}")
        s = float(self.strength)
        if not (0.0 <= s <= 1.0):
            raise BadStrengthError(f"strength {s} outside [0, 1]")
        if self.kind == "none" and s != 0.0:
            raise BadStrengthError("noise kind 'none' must have strength 0")
        object.__setattr__(self, "strength", s)


def _act(
    stack: np.ndarray, g: np.ndarray, targets: tuple[int, ...], num_qubits: int, side: int
) -> np.ndarray:
    """Multiply a k-qubit matrix into a batch of operators at `targets`.

    side 0 acts on the row index (M -> g M); side num_qubits acts on the
    column index (M -> M g^T).  Factor order inside g follows the order of
    `targets`, so CNOT on targets (1, 0) has its control on qubit 1.
    """
    k = len(targets)
    m, d = stack.shape[0], stack.shape[1]
    t = stack.reshape((m,) + (2,) * (2 * num_qubits))
    axes = [1 + side + q for q in targets]
    out = np.tensordot(g.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), axes))
    # the k gate outputs come first; move them back to the target axes
    return np.moveaxis(out, list(range(k)), axes).reshape(m, d, d)


def _depolarize_stack(
    stack: np.ndarray, targets: tuple[int, ...], num_qubits: int, strength: float
) -> np.ndarray:
    """Apply depolarizing noise on `targets` to a batch of operators.

    Uses the closed form (1-s) M + s (tr_T M) (x) I_T / d_T on each matrix
    of the batch, with the identity re-inserted at the target positions.
    """
    if strength == 0.0:
        return stack
    n = num_qubits
    k = len(targets)
    m = stack.shape[0]
    d = 2 ** n
    letters = string.ascii_letters
    batch = letters[2 * n]
    rows = [letters[q] for q in range(n)]
    cols = [letters[n + q] for q in range(n)]
    t = np.asarray(stack).reshape((m,) + (2,) * n + (2,) * n)
    # trace over target row/col pairs by repeating the row letter
    in_sub = batch + "".join(rows) + "".join(
        rows[q] if q in targets else cols[q] for q in range(n)
    )
    kept_rows = [rows[q] for q in range(n) if q not in targets]
    kept_cols = [cols[q] for q in range(n) if q not in targets]
    out_sub = batch + "".join(kept_rows) + "".join(kept_cols)
    reduced = np.einsum(f"{in_sub}->{out_sub}", t)
    # re-insert I/2 on each traced qubit
    eye_half = np.eye(2) / 2.0
    id_subs = [f"{rows[q]}{cols[q]}" for q in targets]
    expand_sub = (
        out_sub + "," + ",".join(id_subs) + "->" + batch + "".join(rows) + "".join(cols)
    )
    expanded = np.einsum(expand_sub, reduced, *([eye_half] * k)).reshape(m, d, d)
    return (1.0 - strength) * stack + strength * expanded


def evolve(circ: Circuit, noise: NoiseModel, states) -> np.ndarray:
    """Push a (B, d, d) stack of operators through the noisy circuit.

    Each gate conjugates every operator (M -> U M U+); the noise channel
    then acts on that gate's targets.  Returns the evolved stack as a raw
    array; callers validate what they read as states.
    """
    stack = np.asarray(states, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (circ.dim, circ.dim):
        raise DimensionMismatchError(
            f"expected a (B, {circ.dim}, {circ.dim}) stack, got shape {stack.shape}"
        )
    n = circ.num_qubits
    for g in circ.gates:
        u = g.unitary()
        stack = _act(_act(stack, u, g.targets, n, 0), u.conj(), g.targets, n, n)
        stack = _depolarize_stack(stack, g.targets, n, noise.strength)
    return stack


def compile_ideal(circ: Circuit) -> np.ndarray:
    """The noiseless circuit as one read-only d x d unitary on the register."""
    u = np.eye(circ.dim, dtype=complex)[np.newaxis]
    for g in circ.gates:
        u = _act(u, g.unitary(), g.targets, circ.num_qubits, 0)
    return _freeze(u[0])


def circuit_from_json(obj: dict) -> Circuit:
    """Build a Circuit from its JSON object form.

    Schema: {"num_qubits": n, "gates": [{"name": "H", "targets": [0]} or
    {"matrix": [[...]], "targets": [0, 1]}, ...]}.  Matrix entries are
    numbers or [re, im] pairs.
    """
    if not isinstance(obj, dict):
        raise ConfigError("circuit must be a JSON object")
    if "num_qubits" not in obj or not _is_json_number(obj["num_qubits"], int):
        raise ConfigError('circuit needs an integer "num_qubits" field')
    raw_gates = obj.get("gates", [])
    if not isinstance(raw_gates, list):
        raise ConfigError('"gates" must be a list')
    gates = []
    for i, g in enumerate(raw_gates):
        if not isinstance(g, dict):
            raise ConfigError(f"gate {i} must be an object")
        if "targets" not in g or not isinstance(g["targets"], list):
            raise ConfigError(f'gate {i} needs a "targets" list')
        targets = tuple(g["targets"])
        if not all(_is_json_number(t, int) for t in targets):
            raise ConfigError(f"gate {i} targets must be integers")
        has_name = "name" in g
        has_matrix = "matrix" in g
        if has_name == has_matrix:
            raise ConfigError(f'gate {i} needs exactly one of "name" or "matrix"')
        if has_name:
            if not isinstance(g["name"], str):
                raise ConfigError(f"gate {i} name must be a string")
            gates.append(Gate(targets=targets, name=g["name"]))
        else:
            mat = _matrix_from_json(g["matrix"], f"gate {i} matrix")
            gates.append(Gate(targets=targets, matrix=mat))
    return Circuit(num_qubits=obj["num_qubits"], gates=tuple(gates))
