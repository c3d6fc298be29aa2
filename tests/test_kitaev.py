import numpy as np
import pytest

from ftqc import (
    Circuit,
    Gate,
    NoiseModel,
    OverallComputation,
    basis_encoding,
    basis_readout,
    certify_combined_bound,
)
from ftqc import cli, qcc
from ftqc.errors import (
    BadBitstringError,
    BadProbabilityError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    NotAnEffectError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
    TooManyInputsError,
    UnknownInputError,
)


def parity_computation(num_qubits=1):
    """Identity truth table on all bitstrings of the register, full readout."""
    labels = [format(i, f"0{num_qubits}b") for i in range(2 ** num_qubits)]
    return OverallComputation(
        inputs=tuple(labels),
        outputs=tuple(labels),
        truth_table={x: x for x in labels},
        init=basis_encoding(num_qubits, labels),
        povm=basis_readout(num_qubits),
    )


class TestBasisEncoding:
    def test_single_qubit_states(self):
        enc = basis_encoding(1, ["0", "1"])
        np.testing.assert_allclose(enc["0"], [[1, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(enc["1"], [[0, 0], [0, 1]], atol=1e-15)

    def test_two_qubit_ordering(self):
        # "10" maps to index 2: leading character is the most significant bit
        enc = basis_encoding(2, ["10"])
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        np.testing.assert_allclose(enc["10"], expected, atol=1e-15)

    def test_rejects_too_many_inputs(self):
        with pytest.raises(TooManyInputsError):
            basis_encoding(1, ["0", "1", "0"])

    @pytest.mark.parametrize("width", [9, 30])
    def test_rejects_over_wide_register_before_allocating(self, width, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated a register past the cap")

        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(DimensionMismatchError, match=rf"^dimension 2\*\*{width} exceeds the dense-simulation cap 256$"):
            basis_encoding(width, ["0" * width])
        with pytest.raises(DimensionMismatchError, match="dense-simulation cap"):
            basis_readout(width)

    def test_rejects_bad_bitstring(self):
        with pytest.raises(BadBitstringError):
            basis_encoding(2, ["02"])
        with pytest.raises(BadBitstringError):
            basis_encoding(2, ["0"])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: basis_encoding(0, [""]), "^num_qubits 0 is below 1$"),
        (lambda: basis_encoding(-3, []), "^num_qubits -3 is below 1$"),
        (lambda: basis_readout(0), "^num_qubits 0 is below 1$"),
        (lambda: basis_readout(2, measured=0), "^measured qubits must be integers, got 0$"),
    ],
    ids=["empty_label", "negative_width", "empty_readout", "non_iterable_measured"],
)
def test_refuses_widths_below_one_and_non_iterable_qubits(build, message):
    with pytest.raises(DimensionMismatchError, match=message):
        build()


class TestBasisReadout:
    def test_full_readout_is_projector_family(self):
        povm = basis_readout(2)
        assert set(povm) == {"00", "01", "10", "11"}
        np.testing.assert_allclose(povm["10"], np.diag([0, 0, 1.0, 0]), atol=1e-15)

    def test_marginal_readout_of_first_qubit(self):
        # frozen: measuring qubit 0 of two, outcome "0" has effect diag(1,1,0,0)
        povm = basis_readout(2, measured=(0,))
        assert set(povm) == {"0", "1"}
        np.testing.assert_allclose(povm["0"], np.diag([1.0, 1.0, 0, 0]), atol=1e-15)
        np.testing.assert_allclose(povm["1"], np.diag([0, 0, 1.0, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("measured", [(0.9,), (True,), (0, 1.0)])
    def test_rejects_bool_and_non_integer_qubits(self, measured):
        with pytest.raises(DimensionMismatchError, match="measured qubits must be integers"):
            basis_readout(2, measured=measured)

    @pytest.mark.parametrize("width", [True, 2.0])
    def test_rejects_bool_and_non_integer_width(self, width):
        with pytest.raises(DimensionMismatchError, match="num_qubits must be an integer"):
            basis_readout(width)
        with pytest.raises(DimensionMismatchError, match="num_qubits must be an integer"):
            basis_encoding(width, ["0"])

    def test_effects_resolve_identity(self):
        povm = basis_readout(3, measured=(0, 2))
        total = sum(povm.values())
        np.testing.assert_allclose(total, np.eye(8), atol=1e-15)


class TestOverallComputation:
    def test_rejects_partial_truth_table(self):
        with pytest.raises(UnknownInputError):
            OverallComputation(
                inputs=("0", "1"),
                outputs=("0", "1"),
                truth_table={"0": "0"},
                init=basis_encoding(1, ["0", "1"]),
                povm=basis_readout(1),
            )

    def test_rejects_out_of_range_truth_value(self):
        with pytest.raises(UnknownInputError):
            OverallComputation(
                inputs=("0",),
                outputs=("0",),
                truth_table={"0": "1"},
                init=basis_encoding(1, ["0"]),
                povm={"0": basis_readout(1)["0"], "1": basis_readout(1)["1"]},
            )

    def test_rejects_incomplete_povm(self):
        with pytest.raises(NotAnEffectError):
            OverallComputation(
                inputs=("0",),
                outputs=("0",),
                truth_table={"0": "0"},
                init=basis_encoding(1, ["0"]),
                povm={"0": basis_readout(1)["0"]},
            )

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            OverallComputation(
                inputs=("0",),
                outputs=("0", "1"),
                truth_table={"0": "0"},
                init=basis_encoding(1, ["0"]),
                povm=basis_readout(2, measured=(0,)),
            )

    def test_holds_read_only_stacks_in_label_order(self):
        # the mappings list their labels in another order than the contract
        enc = basis_encoding(2, ["11", "01"])
        readout = basis_readout(2, measured=(1,))
        comp = OverallComputation(
            inputs=("01", "11"),
            outputs=("1", "0"),
            truth_table={"01": "1", "11": "1"},
            init=enc,
            povm=readout,
        )
        assert not hasattr(comp, "dim")
        assert comp.init.shape == (2, 4, 4) and comp.povm.shape == (2, 4, 4)
        assert comp.init.dtype == complex and comp.povm.dtype == complex
        np.testing.assert_array_equal(comp.init, [enc["01"], enc["11"]])
        np.testing.assert_array_equal(comp.povm, [readout["1"], readout["0"]])
        for stack in (comp.init, comp.povm, enc["01"], readout["0"]):
            with pytest.raises(ValueError, match="read-only"):
                stack[..., 0, 0] = 0.5

    def test_holds_the_truth_table_as_outputs_in_inputs_order(self):
        # a dict held as given could be changed after validation
        comp = OverallComputation(("1", "0"), ("0", "1"), {"0": "1", "1": "0"},
                                  basis_encoding(1, ["0", "1"]), basis_readout(1))
        assert comp.truth_table == ("0", "1")
        with pytest.raises(TypeError):
            comp.truth_table["0"] = "zz"

    @pytest.mark.parametrize(
        "init, povm, error, message",
        [
            ({"0": [[1, 0, 0], [0, 0, 0]]}, None, DimensionMismatchError, "square"),
            ({"0": [[0.5, 0.5], [-0.5, 0.5]]}, None, NotHermitianError, "Hermiticity"),
            ({"0": np.eye(2)}, None, NotUnitTraceError, "trace is 2"),
            ({"0": [[1.5, 0], [0, -0.5]]}, None, NotPositiveError, "smallest eigenvalue"),
            ({"0": [[np.nan, 0], [0, 1]]}, None, DomainError, "non-finite"),
            (None, {"0": [[1, 1], [0, 0]], "1": [[0, -1], [0, 1]]}, NotHermitianError, "Hermiticity"),
            # complete and Hermitian, but the effects leave [0, 1]
            (None, {"0": np.diag([2, 0]), "1": np.diag([-1, 1])}, NotAnEffectError, "spectrum"),
        ],
        ids=["non_square", "non_hermitian_state", "trace_two", "negative",
             "nan", "non_hermitian_effect", "outside_unit_interval"],
    )
    def test_validates_each_stack_at_construction(self, init, povm, error, message):
        with pytest.raises(error, match=message):
            OverallComputation(
                inputs=("0",),
                outputs=("0", "1"),
                truth_table={"0": "0"},
                init=init or basis_encoding(1, ["0"]),
                povm=povm or basis_readout(1),
            )


class TestOutcomeDistribution:
    def test_probabilities_sum_to_one(self, monkeypatch):
        # certification reads every input's whole outcome distribution and
        # refuses one that does not sum to 1; the readout loses outcome "1"
        # after the computation has validated its POVM
        comp = parity_computation()
        assert report([]).per_input[1].ideal_success == 1.0
        readout = qcc._readout

        def without_outcome_one(states, effects):
            probs = readout(states, effects)
            probs[:, 1] = 0.0
            return probs

        monkeypatch.setattr(qcc, "_readout", without_outcome_one)
        with pytest.raises(BadProbabilityError, match="sum to 0, expected 1"):
            certify_combined_bound(Circuit(num_qubits=1), NoiseModel(kind="none"), comp)


def report(gates, noise=NoiseModel(kind="none")):
    """Certification of the one-qubit identity computation under `gates`."""
    return certify_combined_bound(Circuit(num_qubits=1, gates=gates), noise, parity_computation())


class TestFailureProbabilities:
    # the intrinsic bound p is the worst failure of the ideal circuit
    def test_ideal_identity_never_fails(self):
        assert report([]).p == pytest.approx(0.0, abs=1e-12)

    def test_ideal_hadamard_fails_half_the_time(self):
        rep = report([Gate(name="H", targets=(0,))])
        assert rep.p == pytest.approx(0.5, abs=1e-12)
        for rec in rep.per_input:
            assert rec.ideal_success == pytest.approx(0.5, abs=1e-12)

    def test_wrong_circuit_always_fails(self):
        # X flips every basis state, so the identity truth table never matches
        assert report([Gate(name="X", targets=(0,))]).p == pytest.approx(1.0, abs=1e-12)

    def test_depolarized_identity_failure(self):
        # frozen: lambda=0.3 identity circuit fails with probability 0.15 on each input
        rep = report([Gate(name="I", targets=(0,))], NoiseModel(kind="depolarizing", strength=0.3))
        assert [rec.x for rec in rep.per_input] == ["0", "1"]
        for rec in rep.per_input:
            assert 1.0 - rec.actual_success == pytest.approx(0.15, abs=1e-12)


def read_computation(obj):
    return cli._computation(obj, "computation")


class TestComputationJson:
    """The computation reader decodes the JSON and builds nothing."""

    def test_computational_basis_shortcut(self):
        cfg = {
            "inputs": ["0", "1"],
            "outputs": ["0", "1"],
            "truth_table": {"0": "0", "1": "1"},
            "povm": "computational_basis",
        }
        # the shortcut passes through as its name, for the command to expand
        assert read_computation(cfg) == cfg

    def test_explicit_effect_matrices(self):
        comp = read_computation(
            {
                "inputs": ["0"],
                "outputs": ["even", "odd"],
                "truth_table": {"0": "even"},
                "povm": {"even": [[1, 0], [0, 0]], "odd": [[0, 0], [0, 1]]},
            }
        )
        # each effect is a list of rows of complex entries, keyed by its label
        assert comp["povm"] == {"even": [[1 + 0j, 0j], [0j, 0j]], "odd": [[0j, 0j], [0j, 1 + 0j]]}
        assert all(type(e) is complex for m in comp["povm"].values() for row in m for e in row)

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            read_computation({"inputs": ["0"], "outputs": ["0"], "truth_table": {"0": "0"}})

    def test_non_string_inputs_rejected(self):
        with pytest.raises(ConfigError):
            read_computation(
                {"inputs": [0], "outputs": ["0"], "truth_table": {}, "povm": "computational_basis"}
            )
