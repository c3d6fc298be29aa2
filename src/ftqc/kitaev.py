"""Overall computations: classical maps realized by channels plus readout.

A computation is a finite input set X, a finite output set Y, a truth table
F: X -> Y, a state preparation for each input, and a POVM indexed by Y.
Running a channel C on input x induces Pr_x(y) = tr(E_y C(rho_x)); the
computation fails on x when the sampled y differs from F(x).

Labels are bitstrings with qubit 0 leftmost, so label "10" prepares basis
index 2 on two qubits.  A computation, like every simulator type, is
read-only once built and compares and hashes by identity.
"""

from collections.abc import Mapping

import numpy as np

from .densmat import (
    _ReadOnly,
    _as_square_matrix,
    _check_povm,
    _check_qubits,
    _check_states,
    _check_width,
)
from .errors import (
    BadBitstringError,
    DimensionMismatchError,
    TooManyInputsError,
    UnknownInputError,
    _shown,
)


def _in_order(mapping, labels: tuple, refusal: str) -> tuple:
    """The values of a mapping keyed by exactly `labels`, in their order."""
    if not isinstance(mapping, Mapping) or set(mapping) != set(labels):
        raise UnknownInputError(refusal)
    return tuple(mapping[label] for label in labels)


def _basis_index(label: str, num_qubits: int) -> int:
    if not isinstance(label, str) or len(label) != num_qubits or any(c not in "01" for c in label):
        raise BadBitstringError(f"label {_shown(label)} is not a bitstring of length {num_qubits}")
    return int(label, 2)


def basis_encoding(num_qubits: int, inputs) -> dict[str, np.ndarray]:
    """Map bitstring labels to computational-basis projectors |x><x|, as
    read-only views of one (B, d, d) stack in the order of `inputs`."""
    num_qubits = _check_width(num_qubits, DimensionMismatchError)
    if not np.iterable(inputs):
        raise BadBitstringError(f"inputs must be a sequence of bitstrings, got {_shown(inputs)}")
    labels = list(inputs)
    if len(labels) > 2 ** num_qubits:
        raise TooManyInputsError(
            f"{len(labels)} inputs cannot be basis-encoded on {num_qubits} qubit(s)"
        )
    idx = [_basis_index(label, num_qubits) for label in labels]
    if len(set(idx)) != len(idx):
        raise BadBitstringError("duplicate input labels")
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
    measured = range(num_qubits) if measured is None else measured
    measured = _check_qubits(measured, "measured qubits", DimensionMismatchError, num_qubits)
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

    truth_table, init and povm map every input label to its output label and
    prepared state and every output label to its effect; a state or effect is
    an array-like, so a DensityMatrix or HermitianOperator goes in as its
    ``.entries`` (the wrapper itself is refused).  The computation holds the
    truth table as a tuple of output labels and init as one read-only
    (B, d, d) complex stack, both in ``inputs`` order, and povm as one
    read-only (Y, d, d) stack in ``outputs`` order, each checked once here;
    the POVM must sum to the identity within 1e-9.  d is ``init.shape[1]``.
    """

    __slots__ = ("inputs", "outputs", "truth_table", "init", "povm")

    def __init__(self, inputs: tuple[str, ...], outputs: tuple[str, ...],
                 truth_table: dict[str, str], init, povm):
        if not (np.iterable(inputs) and np.iterable(outputs)):
            raise DimensionMismatchError("inputs and outputs must be sequences of labels")
        inputs, outputs = tuple(inputs), tuple(outputs)
        if not inputs or not outputs:
            raise DimensionMismatchError("inputs and outputs must be nonempty")
        try:
            distinct = len(set(inputs)) == len(inputs) and len(set(outputs)) == len(outputs)
        except TypeError:  # a label keys the truth table, init or POVM
            raise DimensionMismatchError("input/output labels must be hashable") from None
        if not distinct:
            raise DimensionMismatchError("input/output labels must be distinct")
        truth_table = _in_order(truth_table, inputs, "truth table keys must be exactly the inputs")
        for x, y in zip(inputs, truth_table):
            if y not in outputs:
                raise UnknownInputError(f"truth table sends {x!r} outside the outputs")
        init = _in_order(init, inputs, "init keys must be exactly the inputs")
        povm = _in_order(povm, outputs, "POVM keys must be exactly the outputs")
        states, effects = list(map(_as_square_matrix, init)), list(map(_as_square_matrix, povm))
        dims = sorted({m.shape[0] for m in states + effects})
        if len(dims) != 1:
            raise DimensionMismatchError(f"states and effects have mixed dims {dims}")
        init, povm = np.stack(states), np.stack(effects)
        _check_states(init)
        _check_povm(povm)
        self.inputs, self.outputs, self.truth_table = inputs, outputs, truth_table
        self.init, self.povm = init, povm
