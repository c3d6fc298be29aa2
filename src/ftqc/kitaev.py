"""Overall computations: classical maps realized by channels plus readout.

A computation is a finite input set X, a finite output set Y, a truth table
F: X -> Y, a state preparation for each input, and a POVM indexed by Y.
Running a channel C on input x induces Pr_x(y) = tr(E_y C(rho_x)); the
computation fails on x when the sampled y differs from F(x).

Labels are bitstrings with qubit 0 leftmost, so label "10" prepares basis
index 2 on two qubits.  A computation, like every simulator type, is
read-only once built and compares and hashes by identity.
"""

from __future__ import annotations

import numpy as np

from .densmat import (
    VALIDATION_TOL,
    _ReadOnly,
    _as_square_matrix,
    _check_effects,
    _check_hermitian,
    _check_states,
    _check_width,
)
from .errors import (
    BadBitstringError,
    DimensionMismatchError,
    NotAnEffectError,
    TooManyInputsError,
    UnknownInputError,
    _is_index,
    _shown,
)


def _basis_index(label: str, num_qubits: int) -> int:
    if (
        not isinstance(label, str)
        or len(label) != num_qubits
        or any(c not in "01" for c in label)
    ):
        raise BadBitstringError(
            f"label {label!r} is not a bitstring of length {num_qubits}"
        )
    return int(label, 2)


def basis_encoding(num_qubits: int, inputs) -> dict[str, np.ndarray]:
    """Map bitstring labels to computational-basis projectors |x><x|, as
    read-only views of one (B, d, d) stack in the order of `inputs`."""
    num_qubits = _check_width(num_qubits, DimensionMismatchError)
    labels = list(inputs)
    if len(labels) > 2 ** num_qubits:
        raise TooManyInputsError(
            f"{len(labels)} inputs cannot be basis-encoded on {num_qubits} qubit(s)"
        )
    if len(set(labels)) != len(labels):
        raise BadBitstringError("duplicate input labels")
    idx = [_basis_index(label, num_qubits) for label in labels]
    d = 2 ** num_qubits
    stack = np.zeros((len(labels), d, d), dtype=complex)
    stack[np.arange(len(labels)), idx, idx] = 1.0
    stack.flags.writeable = False
    return dict(zip(labels, stack))


def basis_readout(num_qubits: int, measured=None) -> dict[str, np.ndarray]:
    """Projective readout of a subset of qubits in the computational basis.

    Returns effects keyed by the measured bits (in the order given by
    `measured`, default all qubits), as read-only views of one (Y, d, d)
    stack in label order.  Unmeasured qubits are traced over, i.e. each
    effect is the projector onto all consistent basis states.
    """
    num_qubits = _check_width(num_qubits, DimensionMismatchError)
    if measured is None:
        measured = range(num_qubits)
    measured = tuple(measured) if np.iterable(measured) else measured
    if not isinstance(measured, tuple) or not all(map(_is_index, measured)):
        raise DimensionMismatchError(f"measured qubits must be integers, got {_shown(measured)}")
    measured = tuple(int(q) for q in measured)
    if len(measured) == 0:
        raise DimensionMismatchError("measure at least one qubit")
    if len(set(measured)) != len(measured):
        raise DimensionMismatchError(f"duplicate qubits in {_shown(measured)}")
    if any(q < 0 or q >= num_qubits for q in measured):
        raise DimensionMismatchError(
            f"measured qubits {_shown(measured)} out of range for {num_qubits} qubit(s)"
        )
    d, m = 2 ** num_qubits, len(measured)
    # the outcome of basis state b: its measured bits, the first one leading
    b = np.arange(d)
    y = sum(((b >> (num_qubits - 1 - q)) & 1) << (m - 1 - i) for i, q in enumerate(measured))
    stack = np.zeros((2 ** m, d, d), dtype=complex)
    stack[y, b, b] = 1.0
    stack.flags.writeable = False
    return {format(k, f"0{m}b"): effect for k, effect in enumerate(stack)}


class OverallComputation(_ReadOnly):
    """Classical I/O contract plus its quantum encoding.

    init maps every input label to a prepared state and povm every output
    label to a measurement effect, as array-likes: a DensityMatrix or
    HermitianOperator is passed as its ``.entries``.  The computation holds
    init as one read-only (B, d, d) complex stack in ``inputs`` order and
    povm as one read-only (Y, d, d) stack in ``outputs`` order, each checked
    once here; the POVM must sum to the identity within 1e-9.
    """

    __slots__ = ("inputs", "outputs", "truth_table", "init", "povm")

    def __init__(self, inputs: tuple[str, ...], outputs: tuple[str, ...],
                 truth_table: dict[str, str], init, povm):
        inputs, outputs, truth_table = tuple(inputs), tuple(outputs), dict(truth_table)
        if not inputs or not outputs:
            raise DimensionMismatchError("inputs and outputs must be nonempty")
        if len(set(inputs)) != len(inputs) or len(set(outputs)) != len(outputs):
            raise DimensionMismatchError("input/output labels must be distinct")
        if set(truth_table) != set(inputs):
            raise UnknownInputError("truth table keys must be exactly the inputs")
        for x, y in truth_table.items():
            if y not in outputs:
                raise UnknownInputError(f"truth table sends {x!r} outside the outputs")
        if set(init) != set(inputs):
            raise UnknownInputError("init keys must be exactly the inputs")
        if set(povm) != set(outputs):
            raise UnknownInputError("POVM keys must be exactly the outputs")
        states = [_as_square_matrix(init[x]) for x in inputs]
        effects = [_as_square_matrix(povm[y]) for y in outputs]
        dims = sorted({m.shape[0] for m in states + effects})
        if len(dims) != 1:
            raise DimensionMismatchError(f"states and effects have mixed dims {dims}")
        init, povm = np.stack(states), np.stack(effects)
        init.flags.writeable = povm.flags.writeable = False
        _check_states(init)
        _check_hermitian(povm)
        defect = float(np.max(np.abs(povm.sum(axis=0) - np.eye(dims[0]))))
        if defect > VALIDATION_TOL:
            raise NotAnEffectError(
                f"POVM completeness defect {defect:.3e} exceeds {VALIDATION_TOL:.0e}"
            )
        _check_effects(povm)
        self.inputs, self.outputs, self.truth_table = inputs, outputs, truth_table
        self.init, self.povm = init, povm

    @property
    def dim(self) -> int:
        return self.init.shape[1]
