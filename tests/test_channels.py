import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ftqc import (
    Circuit,
    Gate,
    KrausChannel,
    NoiseModel,
    apply,
    circuit_from_json,
    compile_ideal,
    compile_noisy,
    evolve,
    make_state,
    trace_norm,
    unitary_channel,
)
from ftqc.errors import (
    BadStrengthError,
    CircuitError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    NotUnitaryError,
)

GROUND = make_state([[1, 0], [0, 0]])


def depolarize(rho, strength):
    """Depolarizing noise on the whole register through `evolve`: one
    identity gate on every qubit at once, so only the noise acts."""
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0].bit_length() - 1
    circ = Circuit(num_qubits=n, gates=[Gate(matrix=np.eye(2 ** n), targets=tuple(range(n)))])
    return evolve(circ, NoiseModel(kind="depolarizing", strength=strength), rho[np.newaxis])[0]


def bell_circuit():
    return Circuit(num_qubits=2, gates=[Gate(name="H", targets=(0,)), Gate(name="CNOT", targets=(0, 1))])


class TestKrausChannel:
    def test_accepts_complete_set(self):
        ch = KrausChannel([np.eye(2)])
        assert ch.dim_in == 2 and ch.dim_out == 2

    def test_rejects_incomplete_set(self):
        with pytest.raises(NotUnitaryError):
            KrausChannel([0.5 * np.eye(2)])

    def test_rejects_mixed_shapes(self):
        with pytest.raises(DimensionMismatchError):
            KrausChannel([np.eye(2), np.eye(3)])

    def test_unitary_channel_rejects_nonunitary(self):
        with pytest.raises(NotUnitaryError):
            unitary_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestDepolarizing:
    def test_frozen_single_qubit_action(self):
        # frozen: lambda=0.3 on |0><0| gives diag(0.85, 0.15)
        out = depolarize(GROUND.entries, 0.3)
        np.testing.assert_allclose(out, np.diag([0.85, 0.15]), atol=1e-15)

    def test_frozen_plus_state_action(self):
        # frozen: lambda=0.3 on |+><+| gives [[0.5, 0.35], [0.35, 0.5]]
        out = depolarize(np.full((2, 2), 0.5), 0.3)
        np.testing.assert_allclose(out, [[0.5, 0.35], [0.35, 0.5]], atol=1e-15)

    def test_full_strength_maximally_mixes(self):
        out = depolarize(GROUND.entries, 1.0)
        np.testing.assert_allclose(out, np.eye(2) / 2.0, atol=1e-12)

    def test_zero_strength_is_identity(self):
        out = depolarize(GROUND.entries, 0.0)
        np.testing.assert_allclose(out, GROUND.entries, atol=1e-15)

    def test_two_qubit_variant(self):
        rho = np.diag([1.0, 0, 0, 0])
        out = depolarize(rho, 0.4)
        expected = 0.6 * rho + 0.4 * np.eye(4) / 4.0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_rejects_bad_strength(self):
        with pytest.raises(BadStrengthError):
            NoiseModel(kind="depolarizing", strength=-0.1)
        with pytest.raises(BadStrengthError):
            NoiseModel(kind="depolarizing", strength=1.2)

    def test_composition_law(self):
        # two noisy identity gates at strength a equal one at 1 - (1-a)**2
        a = 0.2
        twice = Circuit(num_qubits=1, gates=[Gate(name="I", targets=(0,))] * 2)
        rng = np.random.default_rng(7)
        for _ in range(5):
            rho = helpers.ginibre_density(2, rng)
            np.testing.assert_allclose(
                evolve(twice, NoiseModel(kind="depolarizing", strength=a), rho[np.newaxis])[0],
                depolarize(rho, 1.0 - (1.0 - a) ** 2),
                atol=1e-12,
            )

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_matches_pauli_twirl_oracle(self, seed):
        rng = np.random.default_rng(seed)
        lam = float(rng.uniform(0.0, 1.0))
        rho = helpers.ginibre_density(2, rng)
        want = helpers.depolarize_oracle(rho, (0,), 1, lam)
        np.testing.assert_allclose(depolarize(rho, lam), want, atol=1e-12)


class TestComposeAndApply:
    def test_apply_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            ops = helpers.random_cptp_kraus(dim, int(rng.integers(1, 5)), rng)
            rho = helpers.ginibre_density(dim, rng)
            got = apply(KrausChannel(ops), make_state(rho)).entries
            np.testing.assert_allclose(got, helpers.loop_apply(ops, rho), atol=1e-12)

    def test_compose_matches_sequential_apply(self):
        # a two-gate circuit compiled as one channel equals its single-gate
        # channels applied one after the other
        rng = np.random.default_rng(22)
        noise = NoiseModel(kind="depolarizing", strength=0.25)
        first = Gate(matrix=helpers.haar_unitary(4, rng), targets=(1, 0))
        second = Gate(matrix=helpers.haar_unitary(2, rng), targets=(1,))
        whole = compile_noisy(Circuit(num_qubits=2, gates=[first, second]), noise)
        rho = make_state(helpers.ginibre_density(4, rng))
        step = rho
        for g in (first, second):
            step = apply(compile_noisy(Circuit(num_qubits=2, gates=[g]), noise), step)
        np.testing.assert_allclose(apply(whole, rho).entries, step.entries, atol=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_channels_are_trace_preserving_contractions(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        ch = KrausChannel(helpers.random_cptp_kraus(dim, int(rng.integers(1, 4)), rng))
        a = make_state(helpers.ginibre_density(dim, rng))
        b = make_state(helpers.ginibre_density(dim, rng))
        fa, fb = apply(ch, a), apply(ch, b)
        # outputs are valid states (constructor re-validates) and the map is 1-norm contractive
        assert trace_norm(fa.entries - fb.entries) <= trace_norm(a.entries - b.entries) + 1e-10


class TestGateAndCircuit:
    def test_named_gate_table(self):
        g = Gate(name="X", targets=(0,))
        np.testing.assert_allclose(g.unitary(), [[0, 1], [1, 0]])

    def test_custom_matrix_gate(self):
        g = Gate(matrix=np.eye(4), targets=(0, 1))
        assert len(g.targets) == 2
        np.testing.assert_allclose(g.unitary(), np.eye(4))

    def test_rejects_unknown_name(self):
        with pytest.raises(CircuitError):
            Gate(name="SWAPPY", targets=(0, 1))

    def test_rejects_name_and_matrix_together(self):
        with pytest.raises(CircuitError):
            Gate(name="X", matrix=np.eye(2), targets=(0,))

    def test_rejects_arity_mismatch(self):
        with pytest.raises(CircuitError):
            Gate(name="CNOT", targets=(0,))

    def test_rejects_repeated_targets(self):
        with pytest.raises(CircuitError):
            Gate(name="CZ", targets=(1, 1))

    def test_rejects_nonunitary_matrix(self):
        with pytest.raises(NotUnitaryError):
            Gate(matrix=np.array([[1.0, 0.0], [0.0, 2.0]]), targets=(0,))

    def test_circuit_rejects_out_of_range_target(self):
        with pytest.raises(CircuitError):
            Circuit(num_qubits=1, gates=[Gate(name="CNOT", targets=(0, 1))])

    def test_circuit_rejects_too_many_qubits(self):
        with pytest.raises(CircuitError):
            Circuit(num_qubits=9, gates=[])

    def test_rejects_non_finite_matrix(self):
        with pytest.raises(DomainError, match="non-finite"):
            Gate(matrix=np.array([[np.nan, 0.0], [0.0, 1.0]]), targets=(0,))


def embedded(u, targets, n):
    """The full-register unitary that compile_ideal builds for one gate."""
    circ = Circuit(num_qubits=n, gates=[Gate(matrix=u, targets=targets)])
    return compile_ideal(circ).kraus_ops[0]


class TestEmbedding:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_matches_bit_manipulation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        arity = 1 if n == 1 else int(rng.integers(1, 3))
        targets = tuple(int(t) for t in rng.choice(n, size=arity, replace=False))
        u = helpers.haar_unitary(2 ** arity, rng)
        want = helpers.embed_oracle(u, targets, n)
        np.testing.assert_allclose(embedded(u, targets, n), want, atol=1e-12)

    def test_leading_qubit_is_most_significant(self):
        # X on qubit 0 of two maps |00> (index 0) to |10> (index 2)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        full = embedded(x, (0,), 2)
        np.testing.assert_allclose(full, np.kron(x, np.eye(2)), atol=1e-15)

    def test_trailing_qubit_is_least_significant(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        full = embedded(x, (1,), 2)
        np.testing.assert_allclose(full, np.kron(np.eye(2), x), atol=1e-15)


class TestCompile:
    def test_ideal_bell_state(self):
        ch = compile_ideal(bell_circuit())
        rho = apply(ch, make_state(np.diag([1.0, 0, 0, 0])))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(rho.entries, expected, atol=1e-12)

    def test_ideal_empty_circuit_is_identity(self):
        ch = compile_ideal(Circuit(num_qubits=1, gates=[]))
        assert len(ch.kraus_ops) == 1
        np.testing.assert_allclose(ch.kraus_ops[0], np.eye(2), atol=1e-15)

    def test_noisy_with_zero_strength_equals_ideal(self):
        circ = bell_circuit()
        ideal = compile_ideal(circ)
        noisy = compile_noisy(circ, NoiseModel(kind="depolarizing", strength=0.0))
        rng = np.random.default_rng(13)
        for _ in range(5):
            rho = make_state(helpers.ginibre_density(4, rng))
            np.testing.assert_allclose(
                apply(noisy, rho).entries, apply(ideal, rho).entries, atol=1e-12
            )

    def test_noise_kind_none_equals_ideal(self):
        circ = bell_circuit()
        noisy = compile_noisy(circ, NoiseModel(kind="none", strength=0.0))
        rho = make_state(np.diag([1.0, 0, 0, 0]))
        np.testing.assert_allclose(
            apply(noisy, rho).entries,
            apply(compile_ideal(circ), rho).entries,
            atol=1e-12,
        )

    def test_kraus_count_stays_bounded(self):
        # 6 noisy gates on 2 qubits still compile to at most dim^2 = 16 operators
        gates = [Gate(name="H", targets=(i % 2,)) for i in range(6)]
        ch = compile_noisy(Circuit(num_qubits=2, gates=gates), NoiseModel(kind="depolarizing", strength=0.2))
        assert len(ch.kraus_ops) <= 16

    def test_single_gate_noisy_matches_direct_composition(self):
        circ = Circuit(num_qubits=1, gates=[Gate(name="H", targets=(0,))])
        ch = compile_noisy(circ, NoiseModel(kind="depolarizing", strength=0.3))
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
        rng = np.random.default_rng(17)
        for _ in range(5):
            rho = make_state(helpers.ginibre_density(2, rng))
            want = 0.7 * h @ rho.entries @ h + 0.3 * np.eye(2) / 2.0
            np.testing.assert_allclose(apply(ch, rho).entries, want, atol=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_noisy_matches_sequential_oracle(self, seed):
        rng = np.random.default_rng(seed)
        circ, noise, _ = helpers.random_instance(rng)
        ch = compile_noisy(circ, noise)
        rho = helpers.ginibre_density(2 ** circ.num_qubits, rng)
        want = helpers.sequential_noisy_oracle(circ, noise.strength, rho)
        assert trace_norm(apply(ch, make_state(rho)).entries - want) < 1e-9
        assert trace_norm(evolve(circ, noise, rho[np.newaxis])[0] - want) < 1e-9

    def test_evolve_rejects_wrong_stack_shape(self):
        noise = NoiseModel(kind="depolarizing", strength=0.1)
        with pytest.raises(DimensionMismatchError):
            evolve(bell_circuit(), noise, np.eye(4, dtype=complex))
        with pytest.raises(DimensionMismatchError):
            evolve(bell_circuit(), noise, np.eye(2, dtype=complex)[np.newaxis])

    def test_bad_noise_kind_rejected(self):
        with pytest.raises(BadStrengthError):
            NoiseModel(kind="amplitude", strength=0.1)

    def test_noise_none_must_have_zero_strength(self):
        with pytest.raises(BadStrengthError):
            NoiseModel(kind="none", strength=0.2)


class TestCircuitJson:
    def test_round_trip_named_gates(self):
        circ = circuit_from_json(
            {
                "num_qubits": 2,
                "gates": [
                    {"name": "H", "targets": [0]},
                    {"name": "CNOT", "targets": [0, 1]},
                ],
            }
        )
        assert circ.num_qubits == 2
        assert len(circ.gates) == 2
        assert circ.gates[1].name == "CNOT"

    def test_matrix_gate_with_complex_entries(self):
        circ = circuit_from_json(
            {
                "num_qubits": 1,
                "gates": [
                    {"matrix": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]], "targets": [0]}
                ],
            }
        )
        np.testing.assert_allclose(circ.gates[0].unitary(), [[0, -1j], [1j, 0]], atol=1e-15)

    def test_rejects_missing_fields(self):
        with pytest.raises(ConfigError):
            circuit_from_json({"gates": []})

    def test_rejects_bad_gate_description(self):
        with pytest.raises(ConfigError):
            circuit_from_json({"num_qubits": 1, "gates": [{"targets": [0]}]})

    def test_rejects_non_list_gates(self):
        with pytest.raises(ConfigError):
            circuit_from_json({"num_qubits": 1, "gates": "H0"})
