import numpy as np
import pytest

from ftqc import (
    Circuit,
    Gate,
    HermitianOperator,
    NoiseModel,
    OverallComputation,
    basis_encoding,
    basis_readout,
    certify_combined_bound,
    computation_from_json,
)
from ftqc.errors import (
    BadBitstringError,
    BadProbabilityError,
    ConfigError,
    DimensionMismatchError,
    NotAnEffectError,
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
        np.testing.assert_allclose(enc["0"].entries, [[1, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(enc["1"].entries, [[0, 0], [0, 1]], atol=1e-15)

    def test_two_qubit_ordering(self):
        # "10" maps to index 2: leading character is the most significant bit
        enc = basis_encoding(2, ["10"])
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        np.testing.assert_allclose(enc["10"].entries, expected, atol=1e-15)

    def test_rejects_too_many_inputs(self):
        with pytest.raises(TooManyInputsError):
            basis_encoding(1, ["0", "1", "0"])

    def test_rejects_bad_bitstring(self):
        with pytest.raises(BadBitstringError):
            basis_encoding(2, ["02"])
        with pytest.raises(BadBitstringError):
            basis_encoding(2, ["0"])


class TestBasisReadout:
    def test_full_readout_is_projector_family(self):
        povm = basis_readout(2)
        assert set(povm) == {"00", "01", "10", "11"}
        np.testing.assert_allclose(povm["10"].entries, np.diag([0, 0, 1.0, 0]), atol=1e-15)

    def test_marginal_readout_of_first_qubit(self):
        # frozen: measuring qubit 0 of two, outcome "0" has effect diag(1,1,0,0)
        povm = basis_readout(2, measured=(0,))
        assert set(povm) == {"0", "1"}
        np.testing.assert_allclose(povm["0"].entries, np.diag([1.0, 1.0, 0, 0]), atol=1e-15)
        np.testing.assert_allclose(povm["1"].entries, np.diag([0, 0, 1.0, 1.0]), atol=1e-15)

    def test_effects_resolve_identity(self):
        povm = basis_readout(3, measured=(0, 2))
        total = sum(e.entries for e in povm.values())
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


class TestOutcomeDistribution:
    def test_probabilities_sum_to_one(self):
        # certification reads every input's whole outcome distribution and
        # refuses one that does not sum to 1; the POVM is emptied of one
        # effect after the computation has validated it
        comp = parity_computation()
        assert report([]).per_input[1].ideal_success == 1.0
        comp.povm["1"] = HermitianOperator(np.zeros((2, 2)))
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


class TestComputationJson:
    def test_computational_basis_shortcut(self):
        comp = computation_from_json(
            {
                "inputs": ["0", "1"],
                "outputs": ["0", "1"],
                "truth_table": {"0": "0", "1": "1"},
                "povm": "computational_basis",
            }
        )
        assert comp.inputs == ("0", "1")
        np.testing.assert_allclose(comp.povm["1"].entries, np.diag([0, 1.0]), atol=1e-15)

    def test_explicit_effect_matrices(self):
        comp = computation_from_json(
            {
                "inputs": ["0"],
                "outputs": ["even", "odd"],
                "truth_table": {"0": "even"},
                "povm": {"even": [[1, 0], [0, 0]], "odd": [[0, 0], [0, 1]]},
            }
        )
        np.testing.assert_allclose(comp.povm["odd"].entries, np.diag([0, 1.0]), atol=1e-15)

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            computation_from_json({"inputs": ["0"], "outputs": ["0"], "truth_table": {"0": "0"}})

    def test_non_string_inputs_rejected(self):
        with pytest.raises(ConfigError):
            computation_from_json(
                {"inputs": [0], "outputs": ["0"], "truth_table": {}, "povm": "computational_basis"}
            )
