"""Overall computations: classical maps realized by channels plus readout.

A computation is a finite input set X, a finite output set Y, a truth table
F: X -> Y, a state preparation for each input, and a POVM indexed by Y.
Running a channel C on input x induces Pr_x(y) = tr(E_y C(rho_x)); the
computation fails on x when the sampled y differs from F(x).

Labels are bitstrings with qubit 0 leftmost, so label "10" prepares basis
index 2 on two qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densmat import (
    MAX_DIM,
    MAX_QUBITS,
    DensityMatrix,
    HermitianOperator,
    VALIDATION_TOL,
    _is_index,
)
from .errors import (
    BadBitstringError,
    DimensionMismatchError,
    NotAnEffectError,
    TooManyInputsError,
    UnknownInputError,
)


def _check_bitstring(label: str, num_qubits: int) -> None:
    if (
        not isinstance(label, str)
        or len(label) != num_qubits
        or any(c not in "01" for c in label)
    ):
        raise BadBitstringError(
            f"label {label!r} is not a bitstring of length {num_qubits}"
        )


def _check_width(num_qubits: int) -> None:
    if not _is_index(num_qubits):
        raise DimensionMismatchError(f"num_qubits must be an integer, got {num_qubits!r}")
    # before anything of size 2**num_qubits is allocated or looped over; the
    # power stays unevaluated, since a long label makes it too big to print
    if num_qubits > MAX_QUBITS:
        raise DimensionMismatchError(
            f"dimension 2**{num_qubits} exceeds the dense-simulation cap {MAX_DIM}"
        )


def basis_encoding(num_qubits: int, inputs) -> dict[str, DensityMatrix]:
    """Map bitstring labels to computational-basis projectors |x><x|."""
    _check_width(num_qubits)
    labels = list(inputs)
    if len(labels) > 2 ** num_qubits:
        raise TooManyInputsError(
            f"{len(labels)} inputs cannot be basis-encoded on {num_qubits} qubit(s)"
        )
    if len(set(labels)) != len(labels):
        raise BadBitstringError("duplicate input labels")
    d = 2 ** num_qubits
    out = {}
    for label in labels:
        _check_bitstring(label, num_qubits)
        idx = int(label, 2)
        m = np.zeros((d, d), dtype=complex)
        m[idx, idx] = 1.0
        out[label] = DensityMatrix(m)
    return out


def basis_readout(
    num_qubits: int, measured=None
) -> dict[str, HermitianOperator]:
    """Projective readout of a subset of qubits in the computational basis.

    Returns effects keyed by the measured bits (in the order given by
    `measured`, default all qubits).  Unmeasured qubits are traced over,
    i.e. each effect is the projector onto all consistent basis states.
    """
    _check_width(num_qubits)
    if measured is None:
        measured = tuple(range(num_qubits))
    measured = tuple(measured)
    if not all(map(_is_index, measured)):
        raise DimensionMismatchError(f"measured qubits must be integers, got {measured!r}")
    measured = tuple(int(q) for q in measured)
    if len(measured) == 0:
        raise DimensionMismatchError("measure at least one qubit")
    if len(set(measured)) != len(measured):
        raise DimensionMismatchError(f"duplicate qubits in {measured}")
    if any(q < 0 or q >= num_qubits for q in measured):
        raise DimensionMismatchError(
            f"measured qubits {measured} out of range for {num_qubits} qubit(s)"
        )
    d = 2 ** num_qubits
    diags: dict[str, np.ndarray] = {}
    for k in range(2 ** len(measured)):
        label = format(k, f"0{len(measured)}b")
        diags[label] = np.zeros(d)
    for b in range(d):
        bits = format(b, f"0{num_qubits}b")
        label = "".join(bits[q] for q in measured)
        diags[label][b] = 1.0
    return {
        label: HermitianOperator(np.diag(diag).astype(complex))
        for label, diag in diags.items()
    }


@dataclass(frozen=True)
class OverallComputation:
    """Classical I/O contract plus its quantum encoding.

    init maps every input label to a prepared state; povm maps every output
    label to a measurement effect.  The POVM must be complete (effects sum
    to the identity within 1e-9).
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    truth_table: dict[str, str]
    init: dict[str, DensityMatrix]
    povm: dict[str, HermitianOperator]

    def __post_init__(self):
        inputs = tuple(self.inputs)
        outputs = tuple(self.outputs)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "truth_table", dict(self.truth_table))
        object.__setattr__(self, "init", dict(self.init))
        object.__setattr__(self, "povm", dict(self.povm))
        if not inputs or not outputs:
            raise DimensionMismatchError("inputs and outputs must be nonempty")
        if len(set(inputs)) != len(inputs) or len(set(outputs)) != len(outputs):
            raise DimensionMismatchError("input/output labels must be distinct")
        if set(self.truth_table) != set(inputs):
            raise UnknownInputError("truth table keys must be exactly the inputs")
        for x, y in self.truth_table.items():
            if y not in outputs:
                raise UnknownInputError(f"truth table sends {x!r} outside the outputs")
        if set(self.init) != set(inputs):
            raise UnknownInputError("init keys must be exactly the inputs")
        if set(self.povm) != set(outputs):
            raise UnknownInputError("POVM keys must be exactly the outputs")
        dims = {st.dim for st in self.init.values()}
        if len(dims) != 1:
            raise DimensionMismatchError(f"init states have mixed dims {sorted(dims)}")
        (dim,) = dims
        total = np.zeros((dim, dim), dtype=complex)
        for e in self.povm.values():
            if e.dim != dim:
                raise DimensionMismatchError(
                    f"effect dim {e.dim} does not match state dim {dim}"
                )
            total = total + e.entries
        defect = float(np.max(np.abs(total - np.eye(dim))))
        if defect > VALIDATION_TOL:
            raise NotAnEffectError(
                f"POVM completeness defect {defect:.3e} exceeds {VALIDATION_TOL:.0e}"
            )

    @property
    def dim(self) -> int:
        return next(iter(self.init.values())).dim
