"""The argument rules shared through ftqc.errors: every bad count or
probability given to the library raises an ftqc.errors class with a
message, and a NumPy integer counts exactly as the same Python int.  The
value types are read-only, and the simulator's compare by identity."""

import array
import ast
import copy
import json
import math
import pathlib
import pickle

import numpy as np
import pytest

from ftqc import channels, cli, densmat, errors, ftcalc, kitaev, qcc, vote
from ftqc.channels import Circuit, Gate, NoiseModel, compile_ideal, evolve
from ftqc.densmat import DensityMatrix, HermitianOperator, effect_probability
from ftqc.errors import (
    BadBitstringError,
    BadProbabilityError,
    BadStrengthError,
    CircuitError,
    DimensionMismatchError,
    DomainError,
    InfeasibleError,
    UnknownInputError,
)
from ftqc.ftcalc import (
    FtParams,
    circuit_failure,
    epsilon_budget,
    max_gate_error,
    required_alpha,
    required_levels,
    tradeoff_curve,
)
from ftqc.kitaev import OverallComputation, basis_encoding, basis_readout
from ftqc.qcc import (
    InputRecord,
    LinkingMaps,
    MixingCheck,
    QccReport,
    alpha_random_search,
    certify_combined_bound,
    implemented_channel,
    mixing_inaccuracy_bound_check,
)
from ftqc.vote import majority_success, min_repetitions

SRC = pathlib.Path(errors.__file__).parent
HUGE = 10 ** 5000  # str() of it raises ValueError
BUDGET = dict(eps_th=1e-9, gate_count=10 ** 12, p=0.2, p_hat=0.4)
ZERO_BUDGET = "infeasible: the budget (p_hat - p) / 2 rounds to 0 at p_hat 5e-324, p 0.0"
GROUND, EXCITED = DensityMatrix([[1, 0], [0, 0]]), DensityMatrix([[0, 0], [0, 1]])
CIRC = Circuit(num_qubits=1, gates=[Gate(name="H", targets=(0,))])
NOISE = NoiseModel("depolarizing", 0.1)
# the Hadamard by name and as an explicit unitary, each a gate whose field is an array
NAMED_GATE = Gate(targets=(0,), name="H")
MATRIX_GATE = Gate(targets=(0,), matrix=np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def search(trials, seed=0):
    return alpha_random_search(
        implemented_channel(CIRC, NOISE), compile_ideal(CIRC), LinkingMaps(), trials, seed
    )


def computation_of(state):
    return OverallComputation(("0",), ("0", "1"), {"0": "0"}, {"0": state}, basis_readout(1))


BAD_CALLS = {
    "majority_success k past the digit limit": (DomainError, lambda: majority_success(0.1, -HUGE)),
    "majority_success k past the float range": (DomainError, lambda: majority_success(0.1, 10 ** 400 + 1)),
    "majority_success p_prime a string": (BadProbabilityError, lambda: majority_success("a", 3)),
    "majority_success p_prime None": (BadProbabilityError, lambda: majority_success(None, 3)),
    "min_repetitions target a string": (BadProbabilityError, lambda: min_repetitions(0.1, "x")),
    "FtParams eps0 a string": (BadProbabilityError, lambda: FtParams(eps0="x", **BUDGET)),
    "FtParams eps0 past the float range": (BadProbabilityError, lambda: FtParams(eps0=HUGE, **BUDGET)),
    "epsilon_budget p_hat above 1": (BadProbabilityError, lambda: epsilon_budget(5, 1)),
    "required_alpha p negative": (BadProbabilityError, lambda: required_alpha(0.5, -3)),
    "required_alpha p_hat a string": (BadProbabilityError, lambda: required_alpha("a", 0.1)),
    "required_alpha p and p_hat numeric text": (BadProbabilityError, lambda: required_alpha("0.4", "0.2")),
    "circuit_failure eps_n a string": (DomainError, lambda: circuit_failure("a", 3)),
    "circuit_failure eps_n numeric text": (DomainError, lambda: circuit_failure("0.5", 3)),
    "NoiseModel strength numeric bytes": (BadStrengthError, lambda: NoiseModel("depolarizing", b"0.5")),
    "required_alpha p_hat numeric text in a buffer": (
        BadProbabilityError, lambda: required_alpha(memoryview(b"0.4"), 0.2)),
    "NoiseModel strength numeric text in an array": (
        BadStrengthError, lambda: NoiseModel("depolarizing", array.array("b", b"0.5"))),
    "FtParams p a NumPy complex": (
        BadProbabilityError, lambda: FtParams(eps0=1e-10, **dict(BUDGET, p=np.complex128(0.2)))),
    "NoiseModel strength a string": (BadStrengthError, lambda: NoiseModel("depolarizing", "x")),
    "NoiseModel strength None": (BadStrengthError, lambda: NoiseModel("depolarizing", None)),
    "NoiseModel strength past the float range": (BadStrengthError, lambda: NoiseModel("depolarizing", 10 ** 400)),
    "mixing check eps_qc a string": (
        BadProbabilityError, lambda: mixing_inaccuracy_bound_check(GROUND, EXCITED, "x")),
    "tradeoff_curve points past the digit limit": (DomainError, lambda: tradeoff_curve(1e-13, 1e-9, -HUGE, **BUDGET)),
    "tradeoff_curve eps0_min a string": (DomainError, lambda: tradeoff_curve("a", 1e-10, 5, **BUDGET)),
    "alpha_random_search trials past the digit limit": (DomainError, lambda: search(-HUGE)),
    "alpha_random_search trials a float": (DomainError, lambda: search(2.5)),
    "alpha_random_search trials a bool": (DomainError, lambda: search(True)),
    "alpha_random_search seed a string": (DomainError, lambda: search(1, seed="x")),
    "alpha_random_search seed a float": (DomainError, lambda: search(1, seed=1.9)),
    "alpha_random_search seed a bool": (DomainError, lambda: search(1, seed=True)),
    "LinkingMaps ancilla_dim a bool": (DimensionMismatchError, lambda: LinkingMaps(True)),
    "Circuit num_qubits past the digit limit": (CircuitError, lambda: Circuit(num_qubits=HUGE)),
    "Circuit target past the digit limit": (
        CircuitError, lambda: Circuit(num_qubits=2, gates=[Gate(name="H", targets=(HUGE,))])),
    "basis_encoding width past the digit limit": (DimensionMismatchError, lambda: basis_encoding(HUGE, [])),
    "basis_readout qubit past the digit limit": (DimensionMismatchError, lambda: basis_readout(2, measured=(HUGE,))),
    "DensityMatrix a string": (DomainError, lambda: DensityMatrix("ab")),
    "DensityMatrix ragged rows": (DomainError, lambda: DensityMatrix([[1, 0], [0]])),
    "OverallComputation given a DensityMatrix object": (DomainError, lambda: computation_of(GROUND)),
    "Gate targets not iterable": (CircuitError, lambda: Gate(0, name="X")),
    "Circuit gates not iterable": (CircuitError, lambda: Circuit(1, 5)),
    "basis_encoding inputs not iterable": (BadBitstringError, lambda: basis_encoding(1, 5)),
    "basis_encoding label past the digit limit": (BadBitstringError, lambda: basis_encoding(1, [HUGE])),
    "OverallComputation inputs not iterable": (
        DimensionMismatchError, lambda: OverallComputation(5, ("0",), {}, {}, {})),
    "OverallComputation truth table not a mapping": (
        UnknownInputError, lambda: OverallComputation(("0",), ("0",), 5, {}, {})),
    "Gate name unhashable": (CircuitError, lambda: Gate((0,), name=["X"])),
    "basis_encoding label unhashable": (BadBitstringError, lambda: basis_encoding(1, [["0"]])),
    "OverallComputation label unhashable": (
        DimensionMismatchError, lambda: OverallComputation((["0"],), ("0",), {}, {}, {})),
    "effect_probability state a raw array": (
        DomainError, lambda: effect_probability(GROUND.entries, HermitianOperator(np.eye(2)))),
    "effect_probability effect a raw array": (DomainError, lambda: effect_probability(GROUND, np.eye(2))),
    "mixing check state a raw array": (
        DomainError, lambda: mixing_inaccuracy_bound_check(GROUND.entries, EXCITED, 0.1)),
    "evolve states a string": (DomainError, lambda: evolve(CIRC, NOISE, "ab")),
    "compile_ideal circuit None": (DomainError, lambda: compile_ideal(None)),
    "evolve circuit a string": (DomainError, lambda: evolve("c", NOISE, GROUND.entries[np.newaxis])),
    "evolve noise a string": (DomainError, lambda: evolve(CIRC, "none", GROUND.entries[np.newaxis])),
    "certify_combined_bound computation a string": (
        DomainError, lambda: certify_combined_bound(CIRC, NOISE, "comp")),
    "certify_combined_bound noise a float": (
        DomainError, lambda: certify_combined_bound(CIRC, 0.1, computation_of(GROUND.entries))),
    "required_levels params a dict": (DomainError, lambda: required_levels({"eps0": 1e-10})),
    "alpha_random_search G not square": (DimensionMismatchError, lambda: alpha_random_search(
        implemented_channel(CIRC, NOISE), [[1, 0]], LinkingMaps(), 3, 0)),
    "alpha_random_search P not callable": (DomainError, lambda: alpha_random_search(
        "P", compile_ideal(CIRC), LinkingMaps(), 3, 0)),
}


@pytest.mark.parametrize("error, call", BAD_CALLS.values(), ids=BAD_CALLS)
def test_bad_argument_raises_its_error_class(error, call):
    with pytest.raises(error) as info:
        call()
    message = str(info.value)
    assert message and "\n" not in message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: search(0), "trials must be a positive integer, got 0"),
        (lambda: search(np.int64(0)), "trials must be a positive integer, got 0"),
        (lambda: Circuit(np.int64(9)), "dimension 2**9 exceeds the dense-simulation cap 256"),
        (lambda: search(10 ** 6), "trials = 1000000 exceeds the cap of 100000"),
        (lambda: tradeoff_curve(1e-13, 1e-9, 10 ** 400, **BUDGET),
         "points = <1329-bit integer> exceeds the cap of 100000"),
        (lambda: NoiseModel("depolarizing", 2.0), "strength = 2.0 outside [0, 1]"),
        (lambda: mixing_inaccuracy_bound_check(GROUND, EXCITED, -1), "eps_qc = -1 outside [0, 1]"),
        (lambda: basis_readout(2, measured=(HUGE,)),
         "measured qubits (<16610-bit integer>,) out of range for 2 qubit(s)"),
        (lambda: basis_readout(2, measured=()), "measured qubits must be nonempty"),
        (lambda: basis_readout(2, measured=(1, 1)), "duplicate measured qubits in (1, 1)"),
        (lambda: Circuit(2, [Gate((0, 5), name="CNOT")]), "gate targets (0, 5) out of range for 2 qubit(s)"),
        (lambda: Gate(0, name="X"), "gate targets must be integers, got 0"),
        (lambda: Gate((), name="X"), "gate targets must be nonempty"),
        (lambda: Gate((1, 1), name="CZ"), "duplicate gate targets in (1, 1)"),
        (lambda: Gate((-1,), name="X"), "gate targets (-1,) out of range"),
        (lambda: Circuit(1, 5), "gates must be a sequence of Gate instances, got 5"),
        (lambda: basis_encoding(1, 5), "inputs must be a sequence of bitstrings, got 5"),
        (lambda: search(1, seed="x"), "seed must be an integer, got 'x'"),
        (lambda: effect_probability(GROUND, np.eye(2)),
         "effect must be a HermitianOperator or DensityMatrix, got ndarray"),
        (lambda: mixing_inaccuracy_bound_check(GROUND, EXCITED.entries, 0.1),
         "rho_err must be a DensityMatrix, got ndarray"),
        (lambda: OverallComputation((["0"],), ("0",), {}, {}, {}), "input/output labels must be hashable"),
        (lambda: compile_ideal(None), "circ must be a Circuit, got NoneType"),
        (lambda: certify_combined_bound(CIRC, 0.1, computation_of(GROUND.entries)),
         "noise must be a NoiseModel, got float"),
        (lambda: required_levels({"eps0": 1e-10}), "params must be a FtParams, got dict"),
        (lambda: required_levels(tuple(FtParams(eps0=1e-10, **BUDGET))), "params must be a FtParams, got tuple"),
        (lambda: alpha_random_search(None, compile_ideal(CIRC), LinkingMaps(), 3, 0),
         "P must be callable, got NoneType"),
        # G passes the gates' unitarity check, which refuses an overflowing defect with no warning
        (lambda: alpha_random_search(implemented_channel(CIRC, NOISE), 2 * np.eye(2), LinkingMaps(), 4, 1),
         "G unitarity defect 3.000e+00 exceeds 1e-09"),
        (lambda: alpha_random_search(implemented_channel(CIRC, NOISE), 1e200 * np.eye(2), LinkingMaps(), 4, 1),
         "G unitarity defect inf exceeds 1e-09"),
    ],
)
def test_refusal_messages(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "error, call, message",
    [
        (CircuitError, lambda: Gate((0,), matrix=np.eye(4)), "matrix dim 4 does not match 2**1 targets"),
        (CircuitError, lambda: Circuit(1, ["X"]), "gates must be Gate instances"),
        (CircuitError, lambda: Circuit(2, [Gate((2 ** 64,), name="X")]),
         "gate targets (<65-bit integer>,) out of range for 2 qubit(s)"),
        (DimensionMismatchError, lambda: HermitianOperator(np.zeros((0, 0))), "matrix must be at least 1x1"),
        (BadBitstringError, lambda: basis_encoding(1, ["0", "0"]), "duplicate input labels"),
        (DimensionMismatchError, lambda: OverallComputation((), ("0",), {}, {}, {}),
         "inputs and outputs must be nonempty"),
        (DimensionMismatchError, lambda: OverallComputation(("0", "0"), ("0",), {}, {}, {}),
         "input/output labels must be distinct"),
        (DimensionMismatchError, lambda: certify_combined_bound(
            Circuit(2, [Gate((0, 1), name="CNOT")]), NOISE, computation_of(GROUND.entries)),
         "circuit dim 4 does not match computation dim 2"),
        # p_hat - p = 5e-324: FtParams itself refuses the budget it rounds to, however it is built
        (InfeasibleError, lambda: FtParams(eps0=1e-5, eps_th=0.1, gate_count=1, p=0.0, p_hat=5e-324),
         ZERO_BUDGET),
        (InfeasibleError, lambda: FtParams(eps0=1e-5, eps_th=0.1, gate_count=1, p=0.0, p_hat=0.5)._replace(
            p_hat=5e-324), ZERO_BUDGET),
    ],
    ids=["gate_matrix_width", "circuit_gate_type", "circuit_target_range", "empty_operator",
         "duplicate_inputs", "no_inputs", "repeated_inputs", "certify_width", "zero_budget", "zero_budget_replace"],
)
def test_refusal_class_and_message(error, call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def test_numpy_counts_act_as_python_ints():
    got = majority_success(0.15, np.int64(3))
    assert got == majority_success(0.15, 3) and type(got) is float
    assert majority_success(0.15, np.int32(101)) == majority_success(0.15, 101)
    prm = FtParams(eps0=1e-10, **dict(BUDGET, gate_count=np.int64(10 ** 12)))
    assert type(prm.gate_count) is int
    assert repr(required_levels(prm)) == repr(required_levels(FtParams(eps0=1e-10, **BUDGET)))
    assert repr(max_gate_error(np.uint8(2), 1e-9, np.int64(10 ** 12), 0.4, 0.2)) == repr(
        max_gate_error(2, 1e-9, 10 ** 12, 0.4, 0.2))
    curve = tradeoff_curve(np.float64(1e-13), 1e-9, np.int64(8), **dict(BUDGET, gate_count=np.int64(10 ** 12)))
    assert curve == tradeoff_curve(1e-13, 1e-9, 8, **BUDGET)
    assert {type(v) for row in curve for v in row} == {float, int}
    assert not hasattr(LinkingMaps(np.int64(2)), "ancilla_dim")
    assert type(Circuit(num_qubits=np.int64(2)).num_qubits) is int
    assert json.dumps(cli._json_ready(required_levels(prm)._asdict()))


@pytest.mark.parametrize("count", [np.bool_(True), np.float64(3.0), "3", None, 3.0])
def test_a_count_is_an_integer_and_not_a_bool(count):
    with pytest.raises(DomainError, match="repetitions must be a positive integer"):
        majority_success(0.15, count)


@pytest.mark.parametrize(
    "make",
    [
        lambda: DensityMatrix(np.eye(2) / 2),
        lambda: HermitianOperator(np.eye(2)),
        lambda: computation_of(np.diag([1.0, 0.0])),
        lambda: Gate(targets=(0,), matrix=MATRIX_GATE.matrix),
        lambda: Circuit(1, [MATRIX_GATE]),
    ],
    ids=["DensityMatrix", "HermitianOperator", "OverallComputation", "matrix Gate", "Circuit"],
)
def test_array_holders_compare_by_identity(make):
    a, b = make(), make()
    assert (a == b) is False and a == a
    assert len({a, b, a}) == 2


PLANNER_RECORDS = [FtParams(eps0=1e-10, **BUDGET), required_levels(FtParams(eps0=1e-10, **BUDGET)),
                   tradeoff_curve(1e-13, 1e-9, 2, **BUDGET)[0]]


def value_types():
    comp = computation_of(np.diag([1.0, 0.0]))
    report = certify_combined_bound(CIRC, NOISE, comp)
    return [HermitianOperator(np.eye(2)), DensityMatrix(np.eye(2) / 2), NAMED_GATE, MATRIX_GATE,
            Circuit(1, [MATRIX_GATE]), NOISE, comp, LinkingMaps(), report.per_input[0], report,
            mixing_inaccuracy_bound_check(GROUND, EXCITED, 0.1)] + PLANNER_RECORDS


@pytest.mark.parametrize("value", value_types(), ids=lambda v: type(v).__name__)
def test_value_types_are_read_only(value):
    fields = value._fields if isinstance(value, tuple) else type(value).__slots__
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.added = 1
    with pytest.raises(AttributeError):
        del value.added


def fields(value):
    """The values a simulator type or a tuple holds."""
    if isinstance(value, densmat._ReadOnly):
        return [getattr(value, name) for name in type(value).__slots__]
    return list(value) if isinstance(value, tuple) else []


def plain(value):
    """A value as data that == compares: arrays as lists, simulator types by their fields."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, densmat._ReadOnly):
        return type(value), [plain(v) for v in fields(value)]
    return [plain(v) for v in value] if isinstance(value, tuple) else value


def arrays(value):
    """Every array a value holds, however deep."""
    if isinstance(value, np.ndarray):
        return [value]
    return [a for v in fields(value) for a in arrays(v)]


def test_value_types_pickle():
    # pickle and deepcopy fill each slot through the read-only rule; a
    # computation's arrays are its init and povm stacks
    values = (HermitianOperator(np.eye(2)), DensityMatrix(np.eye(2) / 2), NAMED_GATE, MATRIX_GATE,
              Circuit(1, [MATRIX_GATE]), NOISE, computation_of(np.diag([1.0, 0.0])),
              InputRecord("0", 1.0, 0.9, 0.2), MixingCheck(0.1, 0.2, True), *PLANNER_RECORDS)
    for value in values:
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert back is not value and type(back) is type(value) and plain(back) == plain(value)
            assert len(arrays(back)) == len(arrays(value))
            assert not any(a.flags.writeable for a in arrays(back))
            if isinstance(value, Gate):
                assert isinstance(back.matrix, np.ndarray)


def test_values_hold_copies_of_the_callers_arrays():
    rho, flip = np.diag([1.0, 0.0]).astype(complex), np.array([[0, 1], [1, 0]], dtype=complex)
    e0, e1 = rho.copy(), np.diag([0.0, 1.0]).astype(complex)
    comp = OverallComputation(("0",), ("0", "1"), {"0": "0"}, {"0": rho}, {"0": e0, "1": e1})
    held = [HermitianOperator(rho).entries, DensityMatrix(rho).entries,
            Gate((0,), matrix=flip).matrix, comp.init, comp.povm]
    assert not any(h.flags.writeable for h in held)
    for given in (rho, flip, e0, e1):
        assert given.flags.writeable
        assert not any(np.shares_memory(given, h) for h in held)


def test_search_reads_the_ideal_unitary_as_a_matrix():
    P = implemented_channel(CIRC, NOISE)
    u = compile_ideal(CIRC)
    assert alpha_random_search(P, u.tolist(), LinkingMaps(), 3, 0) == alpha_random_search(P, u, LinkingMaps(), 3, 0)


def test_each_rule_has_one_definition():
    shared = ("_shown", "_is_index", "_as_float", "_check_unit_interval", "_check_count", "_check_type")
    for module in (channels, cli, densmat, ftcalc, kitaev, qcc, vote):
        for name in shared:
            assert getattr(module, name, None) in (None, getattr(errors, name)), (module, name)


def test_every_private_name_has_a_user():
    # each private top-level function, class and constant of the package is
    # read somewhere in it, by its own module or by another; so is each
    # __slots__ field of a class, unless the class reads its own __slots__
    defined, read, fields, loaded = set(), set(), set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    defined.update((path.name, t.id) for t in ast.walk(target) if isinstance(t, ast.Name))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            if any(isinstance(n, ast.Attribute) and n.attr == "__slots__" and isinstance(n.ctx, ast.Load)
                   for n in ast.walk(cls)):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["__slots__"]:
                    fields.update((cls.name, field) for field in ast.literal_eval(stmt.value))
        read.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
        read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        loaded.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    private = {(f, name) for f, name in defined if name.startswith("_") and not name.startswith("__")}
    assert len(private) > 40
    assert {(f, name) for f, name in private if name not in read} == set()
    assert len(fields) > 10
    assert {(cls, field) for cls, field in fields if field not in loaded} == set()


def test_no_module_imports_typing():
    # records are collections.namedtuple classes, so the package needs no typing
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "typing" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "typing", path.name


def test_the_p_hat_rule_is_written_once():
    assert sum(path.read_text().count("p_hat must exceed p") for path in SRC.glob("*.py")) == 1


def test_trace_distances_have_one_definition():
    # the check before a trace distance is decided in densmat alone
    assert qcc._distances is densmat._distances
    assert densmat._trace_norms.__module__ == densmat._distances.__module__ == "ftqc.densmat"
    for name in ("_trace_norms", "_check_states", "trace_norm"):
        assert not hasattr(qcc, name), name


def test_unit_interval_takes_any_real_number():
    assert errors._check_unit_interval("p", np.float32(0.5)) == 0.5
    assert errors._check_unit_interval("p", np.array(0.5)) == 0.5
    assert errors._check_unit_interval("p", 1, hi_open=False) == 1.0
    assert errors._check_unit_interval("p", True, hi_open=False) == 1.0
    # float() would parse the text and drop the imaginary parts
    text = ("0.5", np.str_("0.5"), b"0.5", np.bytes_(b"0.5"), bytearray(b"0.5"), memoryview(b"0.5"),
            array.array("b", b"0.5"))
    complex_ = (0.5 + 0j, np.complex128(0.5 + 0.3j), np.complex64(0.5), np.array(0.5 + 0j))
    for bad in (math.nan, math.inf, -math.inf, 1j, [0.5], *text, *complex_):
        with pytest.raises(BadProbabilityError):
            errors._check_unit_interval("p", bad)
    with pytest.raises(BadProbabilityError, match=r"^p = '0\.5' outside \(0, 1\)$"):
        errors._check_unit_interval("p", "0.5")
