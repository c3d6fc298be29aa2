import pickle
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ftqc import (
    Circuit,
    DensityMatrix,
    Gate,
    InputRecord,
    LinkingMaps,
    MixingCheck,
    NoiseModel,
    QccReport,
    alpha_random_search,
    basis_encoding,
    basis_readout,
    certify_combined_bound,
    compile_ideal,
    evolve,
    implemented_channel,
    logical_gate_error,
    majority_success,
    min_repetitions,
    mixing_inaccuracy_bound_check,
)
from ftqc.errors import (
    BadProbabilityError,
    DimensionMismatchError,
    DomainError,
    NotHermitianError,
    NotUnitTraceError,
    TheoremViolationError,
)
from ftqc.kitaev import OverallComputation

GROUND = DensityMatrix([[1, 0], [0, 0]])
CLIFFORD_GATES = ("I", "X", "Y", "Z", "H", "S", "CNOT", "CZ")
MIXED = DensityMatrix(np.eye(2) / 2.0)


def identity_parity(n=1):
    labels = tuple(format(i, f"0{n}b") for i in range(2 ** n))
    return OverallComputation(
        inputs=labels,
        outputs=labels,
        truth_table={x: x for x in labels},
        init=basis_encoding(n, labels),
        povm=basis_readout(n),
    )


def identity_circuit(n=1):
    return Circuit(num_qubits=n, gates=[Gate(name="I", targets=(0,))])


def tilted_plus(n):
    """|+><+| on n qubits plus 4.9e-10 A, A real antisymmetric with -1 in
    every entry below the diagonal: a Hermiticity defect of 9.8e-10, within
    the tolerance.  Full depolarizing noise after an I on every qubit, read
    out by {|+><+|, I - |+><+|}; the exact inaccuracy is 2 (1 - 1/2**n)."""
    d = 2 ** n
    plus, below = np.full((d, d), 1.0 / d), np.tril(np.ones((d, d)), -1)
    comp = OverallComputation(("x",), ("0", "1"), {"x": "0"}, {"x": plus + 4.9e-10 * (below.T - below)},
                              {"0": plus, "1": np.eye(d) - plus})
    circ = Circuit(num_qubits=n, gates=[Gate(name="I", targets=(q,)) for q in range(n)])
    return circ, NoiseModel(kind="depolarizing", strength=1.0), comp


def ladder(n):
    """H on qubit 0, a CNOT ladder down the register, then T on every qubit."""
    gates = [Gate(name="H", targets=(0,))]
    gates += [Gate(name="CNOT", targets=(q, q + 1)) for q in range(n - 1)]
    gates += [Gate(name="T", targets=(q,)) for q in range(n)]
    return Circuit(num_qubits=n, gates=gates)


class TestLinkingMaps:
    def test_trivial_link_is_identity_both_ways(self):
        # the implemented channel acts on the logical register itself
        noise = NoiseModel(kind="depolarizing", strength=0.3)
        P = implemented_channel(identity_circuit(), noise, LinkingMaps())
        rho = helpers.ginibre_density(2, np.random.default_rng(31))[np.newaxis]
        np.testing.assert_array_equal(P(rho), evolve(identity_circuit(), noise, rho))

    def test_rejects_bad_ancilla_dim(self):
        with pytest.raises(DimensionMismatchError):
            LinkingMaps(ancilla_dim=0)


class TestImplementationInaccuracy:
    def test_depolarized_identity_on_basis_state(self):
        # frozen: ||dep_0.3(|0><0|) - |0><0|||_1 = 0.3
        comp = OverallComputation(
            inputs=("0",),
            outputs=("0", "1"),
            truth_table={"0": "0"},
            init=basis_encoding(1, ["0"]),
            povm=basis_readout(1),
        )
        report = certify_combined_bound(
            identity_circuit(), NoiseModel(kind="depolarizing", strength=0.3), comp
        )
        assert report.per_input[0].inaccuracy_x == pytest.approx(0.3, abs=1e-12)

    def test_noiseless_channel_has_zero_gap(self):
        P = implemented_channel(identity_circuit(), NoiseModel(kind="none"))
        G = compile_ideal(identity_circuit())
        assert alpha_random_search(P, G, LinkingMaps(), trials=10, seed=0) <= 1e-12

    def test_dimension_checks(self):
        P = implemented_channel(identity_circuit(2), NoiseModel(kind="none"))
        G = compile_ideal(identity_circuit())
        with pytest.raises(DimensionMismatchError):
            alpha_random_search(P, G, LinkingMaps(), trials=1, seed=0)

    def test_every_pure_state_sees_the_same_depolarizing_gap(self):
        # for the identity circuit, dep(lam) shifts any pure state by exactly
        # lam; one trial per seed measures one Haar-random state
        lam = 0.4
        P = implemented_channel(identity_circuit(), NoiseModel(kind="depolarizing", strength=lam))
        G = compile_ideal(identity_circuit())
        for seed in range(10):
            gap = alpha_random_search(P, G, LinkingMaps(), trials=1, seed=seed)
            assert gap == pytest.approx(lam, abs=1e-12)


class TestAlpha:
    def test_alpha_for_depolarized_identity(self):
        # noise on qubit 0 of two moves every basis input by lambda = 0.3
        report = certify_combined_bound(
            identity_circuit(2), NoiseModel(kind="depolarizing", strength=0.3), identity_parity(2)
        )
        assert report.alpha == pytest.approx(0.3, abs=1e-12)
        for rec in report.per_input:
            assert rec.inaccuracy_x == pytest.approx(0.3, abs=1e-12)

    def test_alpha_for_orthogonal_failure(self):
        # full-strength noise sends each basis state to I/d, at distance
        # 2 (1 - 1/d): the orthogonal gap 2 less the overlap with I/d
        for n in (1, 2):
            d = 2 ** n
            circ = Circuit(num_qubits=n, gates=[Gate(matrix=np.eye(d), targets=tuple(range(n)))])
            report = certify_combined_bound(
                circ, NoiseModel(kind="depolarizing", strength=1.0), identity_parity(n)
            )
            assert report.alpha == pytest.approx(2.0 * (1.0 - 1.0 / d), abs=1e-12)
            assert report.p == pytest.approx(0.0, abs=1e-12)
            for rec in report.per_input:
                assert rec.actual_success == pytest.approx(1.0 / d, abs=1e-12)

    def test_random_search_is_reproducible(self):
        P = implemented_channel(identity_circuit(), NoiseModel(kind="depolarizing", strength=0.3))
        G = compile_ideal(identity_circuit())
        a = alpha_random_search(P, G, LinkingMaps(), trials=50, seed=123)
        b = alpha_random_search(P, G, LinkingMaps(), trials=50, seed=123)
        assert a == b  # bit-identical

    def test_random_search_seed_changes_draws(self):
        # different seeds explore different states; on a gap that is
        # state-independent the result still agrees to float precision
        P = implemented_channel(identity_circuit(), NoiseModel(kind="depolarizing", strength=0.3))
        G = compile_ideal(identity_circuit())
        a = alpha_random_search(P, G, LinkingMaps(), trials=20, seed=1)
        b = alpha_random_search(P, G, LinkingMaps(), trials=20, seed=2)
        assert a == pytest.approx(b, abs=1e-9)
        assert a == pytest.approx(0.3, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_search_matches_per_trial_oracle(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(3):
            while True:
                circ, noise, _ = helpers.random_instance(rng)
                if circ.num_qubits == n:
                    break
            P, G = implemented_channel(circ, noise), compile_ideal(circ)
            seed = int(rng.integers(0, 2 ** 32))
            want = helpers.random_search_oracle(circ, noise, 37, seed)
            got = alpha_random_search(P, G, LinkingMaps(), trials=37, seed=seed)
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, -1, 2 ** 64 - 1, 2 ** 64 + 5])
    def test_random_search_takes_its_seed_modulo_2_64(self, seed):
        circ, noise = ladder(3), NoiseModel(kind="depolarizing", strength=0.1)
        P, G = implemented_channel(circ, noise), compile_ideal(circ)
        got = alpha_random_search(P, G, LinkingMaps(), trials=5, seed=seed)
        assert got == pytest.approx(helpers.random_search_oracle(circ, noise, 5, seed), rel=0, abs=1e-12)
        assert got == alpha_random_search(P, G, LinkingMaps(), trials=5, seed=seed % 2 ** 64)

    def test_eight_qubit_search_holds_one_trial_at_a_time(self):
        # a block holds (256 // d)**2 trials, so at n = 8 each stack is one
        # 1 MiB matrix; the 16 trials in one block would peak near 81 MiB
        circ = Circuit(num_qubits=8, gates=[Gate(name="H", targets=(0,)), Gate(name="CNOT", targets=(7, 0))])
        P = implemented_channel(circ, NoiseModel(kind="depolarizing", strength=0.01))
        G = compile_ideal(circ)
        tracemalloc.start()
        try:
            alpha_random_search(P, G, LinkingMaps(), trials=16, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_random_search_on_four_qubit_ladder_is_fast(self):
        circ = ladder(4)
        start = time.perf_counter()
        P = implemented_channel(circ, NoiseModel(kind="depolarizing", strength=0.01))
        alpha = alpha_random_search(P, compile_ideal(circ), LinkingMaps(), trials=200, seed=0)
        assert time.perf_counter() - start < 2.0
        assert 0.0 < alpha <= 2.0

    def test_alpha_stays_under_the_telescoped_diamond_bound(self):
        # the basis alpha and the search are lower estimates of an alpha that
        # no input, entangled ones included, exceeds: criterion 02's
        # instances, then criterion 04's closed form (alpha = lam against a
        # bound of 1.5 lam) and a noiseless run (a bound of 0)
        rng = np.random.default_rng(20260817)
        cases = [helpers.random_instance(rng) for _ in range(200)]
        cases += [(identity_circuit(), NoiseModel(kind="depolarizing", strength=lam), identity_parity())
                  for lam in (0.1, 0.2, 0.3, 0.5)]
        cases.append((cases[0][0], NoiseModel(kind="none"), cases[0][2]))
        clifford_only = 0
        for seed, (circ, noise, comp) in enumerate(cases):
            bound = helpers.diamond_bound(circ, noise)
            report = certify_combined_bound(circ, noise, comp)
            P, G = implemented_channel(circ, noise), compile_ideal(circ)
            search = alpha_random_search(P, G, LinkingMaps(), trials=16, seed=seed)
            assert report.alpha <= bound + 1e-9
            assert search <= bound + 1e-9
            if all(helpers.gate_name(g) in CLIFFORD_GATES for g in circ.gates):
                # the exact supremum sits between the estimates and the bound
                exact = helpers.clifford_diamond(circ, noise.strength)
                assert report.alpha <= exact + 1e-9 and search <= exact + 1e-9
                assert exact <= bound + 1e-12
                clifford_only += 1
        assert clifford_only >= 50
        for (circ, noise, _), lam in zip(cases[200:204], (0.1, 0.2, 0.3, 0.5)):
            assert helpers.diamond_bound(circ, noise) == pytest.approx(1.5 * lam, abs=1e-15)
        assert helpers.diamond_bound(cases[-1][0], cases[-1][1]) == 0.0

    def test_random_search_rejects_zero_trials(self):
        P = implemented_channel(identity_circuit(), NoiseModel(kind="none"))
        G = compile_ideal(identity_circuit())
        with pytest.raises(DomainError):
            alpha_random_search(P, G, LinkingMaps(), trials=0, seed=0)


class TestCliffordDiamond:
    """helpers.clifford_diamond, the exact alpha over all inputs of a
    Clifford circuit, against the simulator and the closed forms."""

    @staticmethod
    def entangled_distance(circ, s):
        # the circuit on the first half of a doubled register, applied to
        # the maximally entangled state sum_i |i>|i> / sqrt(d)
        doubled = Circuit(2 * circ.num_qubits, circ.gates)
        phi = np.eye(circ.dim).reshape(-1) / np.sqrt(circ.dim)
        rho = np.outer(phi, phi)[np.newaxis]
        noisy = evolve(doubled, NoiseModel(kind="depolarizing", strength=s), rho)[0]
        ideal = evolve(doubled, NoiseModel(kind="none"), rho)[0]
        return helpers.svd_trace_norm(noisy - ideal)

    def test_equals_the_distance_at_the_maximally_entangled_input(self):
        # the Paulis move no string, and S moves one only when a later
        # two-qubit gate spreads it: these draws catch a slip in any other map
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            names = ("H", "S", "CNOT", "CZ")[: 4 if n >= 2 else 2]
            gates = []
            for _ in range(int(rng.integers(0, 16))):
                name = str(rng.choice(names))
                targets = rng.choice(n, size=1 + (name in helpers.TWO_QUBIT_GATES), replace=False)
                gates.append(Gate(targets=tuple(map(int, targets)), name=name))
            circ, s = Circuit(num_qubits=n, gates=gates), float(rng.uniform(0.0, 0.5))
            assert helpers.clifford_diamond(circ, s) == pytest.approx(self.entangled_distance(circ, s), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_gate_on_k_targets(self, n):
        gates = [Gate(targets=(n - 1,), name=name) for name in CLIFFORD_GATES[:6]]
        if n >= 2:
            gates += [Gate(targets=(n - 1, 0), name="CNOT"), Gate(targets=(0, n - 1), name="CZ")]
        for gate in gates:
            for s in (0.0, 0.01, 0.3, 1.0):
                want = 2.0 * s * (1.0 - 4.0 ** -len(gate.targets))
                assert helpers.clifford_diamond(Circuit(num_qubits=n, gates=[gate]), s) == pytest.approx(
                    want, abs=1e-12)

    @pytest.mark.parametrize("gate", [Gate(targets=(0,), name="T"), Gate(targets=(0,), matrix=np.eye(2))])
    def test_refuses_a_gate_outside_the_clifford_names(self, gate):
        with pytest.raises(ValueError, match="not a Clifford gate"):
            helpers.clifford_diamond(Circuit(num_qubits=1, gates=[Gate(targets=(0,), name="H"), gate]), 0.1)


class TestCertify:
    def test_depolarized_identity_report(self):
        # frozen: p=0, alpha=0.3, both failures 0.15, margin 0.15
        report = certify_combined_bound(
            identity_circuit(), NoiseModel(kind="depolarizing", strength=0.3), identity_parity()
        )
        assert report.p == pytest.approx(0.0, abs=1e-12)
        assert report.alpha == pytest.approx(0.3, abs=1e-12)
        assert report.bound_holds is True
        assert report.worst_margin == pytest.approx(0.15, abs=1e-12)
        for rec in report.per_input:
            assert rec.ideal_success == pytest.approx(1.0, abs=1e-12)
            assert rec.actual_success == pytest.approx(0.85, abs=1e-12)
            assert rec.inaccuracy_x == pytest.approx(0.3, abs=1e-12)

    def test_noiseless_run_has_negligible_alpha(self):
        report = certify_combined_bound(
            identity_circuit(), NoiseModel(kind="none"), identity_parity()
        )
        assert report.alpha <= 1e-9
        for rec in report.per_input:
            assert 1.0 - rec.actual_success <= report.p + 1e-9

    def test_bell_parity_certification(self):
        bell = Circuit(num_qubits=2, gates=[Gate(name="H", targets=(0,)), Gate(name="CNOT", targets=(0, 1))])
        # parity readout: outcome is XOR of the two bits
        even = np.diag([1.0, 0, 0, 1.0]).astype(complex)
        odd = np.diag([0, 1.0, 1.0, 0]).astype(complex)
        comp = OverallComputation(
            inputs=("00",),
            outputs=("0", "1"),
            truth_table={"00": "0"},
            init=basis_encoding(2, ["00"]),
            povm={"0": even, "1": odd},
        )
        report = certify_combined_bound(bell, NoiseModel(kind="depolarizing", strength=0.1), comp)
        assert report.p == pytest.approx(0.0, abs=1e-12)
        assert report.bound_holds is True
        assert 1.0 - report.per_input[0].actual_success <= report.p + report.alpha + 1e-9

    def test_nontrivial_ancilla_matches_trivial_one(self):
        # widening by an ancilla the circuit ignores must not change the physics
        noise = NoiseModel(kind="depolarizing", strength=0.3)
        G = compile_ideal(identity_circuit())
        link = LinkingMaps(ancilla_dim=2)
        base = alpha_random_search(implemented_channel(identity_circuit(), noise), G, LinkingMaps(), 20, 7)
        wide = alpha_random_search(implemented_channel(identity_circuit(), noise, link), G, link, 20, 7)
        assert wide == pytest.approx(base, abs=1e-12)

    def test_six_qubit_ladder_all_basis_inputs(self):
        # H + CNOT ladder and a T layer on 6 qubits, every basis input
        n, lam = 6, 0.01
        circ = ladder(n)
        inputs = [format(i, f"0{n}b") for i in range(2 ** n)]
        comp = OverallComputation(
            inputs=tuple(inputs),
            outputs=("0", "1"),
            truth_table={x: x[-1] for x in inputs},
            init=basis_encoding(n, inputs),
            povm=basis_readout(n, measured=(n - 1,)),
        )
        start = time.perf_counter()
        report = certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=lam), comp)
        assert time.perf_counter() - start < 5.0
        assert report.bound_holds is True
        assert report.alpha == max(r.inaccuracy_x for r in report.per_input)
        for rec in report.per_input:
            assert 1.0 - rec.actual_success <= report.p + report.alpha + 1e-9
        records = {r.x: r for r in report.per_input}
        for x in ("000000", "011010", "100101", "111111"):
            rho = comp.init[comp.inputs.index(x)]
            ideal = helpers.sequential_noisy_oracle(circ, 0.0, rho)
            actual = helpers.sequential_noisy_oracle(circ, lam, rho)
            effect = comp.povm[comp.outputs.index(x[-1])]
            rec = records[x]
            assert rec.ideal_success == pytest.approx(np.trace(effect @ ideal).real, abs=1e-12)
            assert rec.actual_success == pytest.approx(np.trace(effect @ actual).real, abs=1e-12)
            assert rec.inaccuracy_x == pytest.approx(helpers.svd_trace_norm(actual - ideal), abs=1e-12)

    def test_each_effect_spectrum_checked_once(self, monkeypatch):
        # all 8 basis inputs of a 3-qubit ladder read out by 2 distinct
        # effects; the computation checks each spectrum when it is built,
        # and certification, however often it runs, checks none again
        n = 3
        gates = [Gate(name="H", targets=(0,))]
        gates += [Gate(name="CNOT", targets=(q, q + 1)) for q in range(n - 1)]
        inputs = [format(i, f"0{n}b") for i in range(2 ** n)]
        readout = basis_readout(n, measured=(n - 1,))
        effects = list(readout.values())
        checks = [0] * len(effects)
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            # a stack of matrices; states have trace 1, these effects 4
            for m in np.reshape(a, (-1,) + effects[0].shape):
                for i, e in enumerate(effects):
                    checks[i] += np.array_equal(m, e)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        comp = OverallComputation(
            inputs=tuple(inputs),
            outputs=("0", "1"),
            truth_table={x: x[-1] for x in inputs},
            init=basis_encoding(n, inputs),
            povm=readout,
        )
        assert checks == [1, 1]
        circ = Circuit(num_qubits=n, gates=gates)
        for _ in range(2):
            certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=0.05), comp)
            assert checks == [1, 1]

    def test_evolves_the_computations_own_stack(self, monkeypatch):
        # only the noisy circuit runs gate by gate, once, on comp.init
        # itself; the ideal outputs come from one compiled unitary
        import ftqc.qcc

        evolve, compile_ideal = ftqc.qcc.evolve, ftqc.qcc.compile_ideal
        seen, compiled = [], []

        def recording_evolve(circ, noise, states):
            seen.append((noise, states))
            return evolve(circ, noise, states)

        def recording_compile_ideal(circ):
            compiled.append(circ)
            return compile_ideal(circ)

        monkeypatch.setattr(ftqc.qcc, "evolve", recording_evolve)
        monkeypatch.setattr(ftqc.qcc, "compile_ideal", recording_compile_ideal)
        comp, circ = identity_parity(2), identity_circuit(2)
        noise = NoiseModel(kind="depolarizing", strength=0.1)
        certify_combined_bound(circ, noise, comp)
        assert len(seen) == 1 and seen[0][0] is noise
        assert np.shares_memory(seen[0][1], comp.init)
        assert compiled == [circ]

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_mixed_inputs_behind_matrix_gates(self, lam):
        # Ginibre inputs through Haar gates on 1 to 3 targets: the ideal
        # outputs U rho U+ of non-basis states, against the gate-by-gate oracle
        rng = np.random.default_rng(2026)
        n, labels = 3, ("a", "b", "c", "d", "e")
        gates = []
        for width in (1, 2, 3, 2, 1):
            targets = tuple(int(q) for q in rng.choice(n, size=width, replace=False))
            gates.append(Gate(targets=targets, matrix=helpers.haar_unitary(2 ** width, rng)))
        circ = Circuit(num_qubits=n, gates=gates)
        readout = basis_readout(n)
        table = {x: format(int(rng.integers(0, 2 ** n)), f"0{n}b") for x in labels}
        init = {x: helpers.ginibre_density(2 ** n, rng) for x in labels}
        comp = OverallComputation(labels, tuple(readout), table, init, readout)
        report = certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=lam), comp)
        for rec in report.per_input:
            ideal = helpers.sequential_noisy_oracle(circ, 0.0, init[rec.x])
            actual = helpers.sequential_noisy_oracle(circ, lam, init[rec.x])
            effect = readout[table[rec.x]]
            assert rec.ideal_success == pytest.approx(np.trace(effect @ ideal).real, abs=1e-12)
            assert rec.actual_success == pytest.approx(np.trace(effect @ actual).real, abs=1e-12)
            assert rec.inaccuracy_x == pytest.approx(helpers.svd_trace_norm(actual - ideal), abs=1e-12)
        assert (report.alpha > 0.0) == (lam > 0.0)

    @pytest.mark.parametrize(
        "corrupt, error, message",
        [
            (lambda m: m.__setitem__((0, 0), np.nan), DomainError, "non-finite"),
            (lambda m: m.__setitem__((0, 1), m[0, 1] + 0.5), NotHermitianError, "Hermiticity"),
            (lambda m: m.__imul__(2.0), NotUnitTraceError, "trace is 2"),
        ],
        ids=["nan", "non_hermitian", "trace_two"],
    )
    def test_evolved_outputs_are_checked_as_states(self, monkeypatch, corrupt, error, message):
        # one output of the noisy stack goes bad; certification must refuse
        # it with the error class a one-matrix DensityMatrix raises
        import ftqc.qcc

        evolve = ftqc.qcc.evolve

        def corrupted_evolve(circ, noise, states):
            out = evolve(circ, noise, states)
            corrupt(out[1])
            return out

        monkeypatch.setattr(ftqc.qcc, "evolve", corrupted_evolve)
        with pytest.raises(error, match=message):
            certify_combined_bound(
                identity_circuit(2), NoiseModel(kind="depolarizing", strength=0.1), identity_parity(2)
            )

    def test_outputs_within_tolerance_are_not_refused_for_their_difference(self):
        # each output stack is Hermitian within 1e-9, their difference is not:
        # only the outputs are checked, so the distance |+><+| (x) |1><1| to I/4 comes back
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1 + 4.95e-10j
        rho[1, 3] = rho[3, 1] = 4.95e-10j
        readout = basis_readout(2)
        comp = OverallComputation(("x",), tuple(readout), {"x": "01"}, {"x": rho}, readout)
        circ = Circuit(2, [Gate((0,), "H"), Gate((1,), "X")])
        report = certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=1.0), comp)
        (rec,) = report.per_input
        assert rec.ideal_success == pytest.approx(0.5, abs=1e-12)
        assert rec.actual_success == pytest.approx(0.25, abs=1e-12)
        assert rec.inaccuracy_x == pytest.approx(1.5, abs=1e-12)
        assert report.alpha == pytest.approx(1.5, abs=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_bound_holds_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        circ, noise, comp = helpers.random_instance(rng)
        report = certify_combined_bound(circ, noise, comp)
        assert report.bound_holds is True
        assert report.worst_margin >= -1e-9
        for rec in report.per_input:
            assert 1.0 - rec.actual_success <= report.p + report.alpha + 1e-9

    def test_halved_distance_breaks_the_per_input_bound(self, monkeypatch):
        # criterion 02's 13th instance: 3 qubits, one gate; halving every
        # trace norm keeps failure <= p + alpha but not the tight per-input form
        import ftqc.densmat

        rng = np.random.default_rng(20260817)
        for _ in range(13):
            circ, noise, comp = helpers.random_instance(rng)
        assert certify_combined_bound(circ, noise, comp).bound_holds is True
        trace_norms = ftqc.densmat._trace_norms
        monkeypatch.setattr(ftqc.densmat, "_trace_norms", lambda stack: trace_norms(stack) / 2)
        with pytest.raises(TheoremViolationError,
                           match=r"^per-input bound violated at input '000': failure .* > ideal failure \+ "):
            certify_combined_bound(circ, noise, comp)

    @pytest.mark.parametrize("n", [2, 8])
    def test_effect_at_the_tolerance_passes_the_per_input_bound(self, n):
        # an effect with spectrum [-1e-9, 1 + 1e-9] reads a gap of D as up to
        # (1/2 + 1e-9) ||D||_1, so the per-input slack grows with inaccuracy_x
        d, delta, eps = 2 ** n, 1e-9, 1e-8
        effect = np.diag([1.0 + delta] + [-delta] * (d - 1))
        state = np.diag([1.0 - eps, eps] + [0.0] * (d - 2))
        comp = OverallComputation(("x",), ("a", "b"), {"x": "a"}, {"x": state}, {"a": effect, "b": np.eye(d) - effect})
        circ = Circuit(num_qubits=n, gates=[Gate(name="I", targets=(q,)) for q in range(n)])
        r = certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=1.0), comp).per_input[0]
        assert (1.0 - r.actual_success) - (1.0 - r.ideal_success + r.inaccuracy_x / 2) > 1.4e-9

    @pytest.mark.parametrize("n", [2, 8])
    def test_distance_is_that_of_the_hermitian_part(self, n):
        # eigvalsh reads a difference's lower triangle alone, which at n = 8
        # sat 2.5e-7 below the exact distance and broke the per-input bound
        r = certify_combined_bound(*tilted_plus(n)).per_input[0]
        assert r.inaccuracy_x == pytest.approx(2.0 * (1.0 - 2.0 ** -n), rel=0.0, abs=1e-14)

    def test_lower_triangle_distance_breaks_the_per_input_bound(self, monkeypatch):
        import ftqc.densmat
        import ftqc.qcc

        monkeypatch.setattr(ftqc.qcc, "_distances", lambda a, b: ftqc.densmat._trace_norms(a - b))
        with pytest.raises(TheoremViolationError, match=r"^per-input bound violated at input 'x': "):
            certify_combined_bound(*tilted_plus(8))

    def test_violation_names_the_first_input_in_inputs_order(self, monkeypatch):
        # with every inaccuracy read as 0, alpha = 0 and each noisy failure breaks p + alpha
        import ftqc.densmat

        monkeypatch.setattr(ftqc.densmat, "_trace_norms", lambda stack: np.zeros(len(stack)))
        labels = ("11", "10", "01", "00")
        comp = OverallComputation(labels, labels, {x: x for x in labels},
                                  basis_encoding(2, labels), basis_readout(2))
        noise = NoiseModel(kind="depolarizing", strength=0.1)
        with pytest.raises(TheoremViolationError, match="^combined bound violated at input '11': failure "):
            certify_combined_bound(identity_circuit(2), noise, comp)

    def test_report_validates_alpha_consistency(self):
        # alpha, p and worst_margin are derived from the records, never passed in
        records = (
            InputRecord(x="0", ideal_success=1.0, actual_success=0.9, inaccuracy_x=0.2),
            InputRecord(x="1", ideal_success=0.75, actual_success=0.7, inaccuracy_x=0.1),
        )
        report = QccReport(records)
        assert report.per_input == records
        assert (report.alpha, report.p) == (0.2, 0.25)
        assert report.worst_margin == min(0.25 + 0.2 - (1.0 - 0.9), 0.25 + 0.2 - (1.0 - 0.7))
        assert report.bound_holds is True

    def test_report_validates_bound_flag(self):
        rec = InputRecord(x="0", ideal_success=1.0, actual_success=0.4, inaccuracy_x=0.2)
        # failure 0.6 > p + alpha = 0.2
        report = QccReport((rec,))
        assert report.bound_holds is False
        assert report.worst_margin == pytest.approx(-0.4)
        with pytest.raises(TypeError):
            QccReport((rec,), alpha=0.5)
        with pytest.raises(DimensionMismatchError, match="at least one input record"):
            QccReport(())

    def test_records_keep_their_fields_repr_and_pickle(self):
        record = InputRecord("0", 1.0, 0.9, 0.2)
        check = MixingCheck(0.1, 0.2, True)
        assert InputRecord._fields == ("x", "ideal_success", "actual_success", "inaccuracy_x")
        assert MixingCheck._fields == ("measured", "bound", "holds")
        assert repr(record) == "InputRecord(x='0', ideal_success=1.0, actual_success=0.9, inaccuracy_x=0.2)"
        assert repr(check) == "MixingCheck(measured=0.1, bound=0.2, holds=True)"
        for value in (record, check):
            back = pickle.loads(pickle.dumps(value))
            assert type(back) is type(value) and back == value == tuple(value) and hash(back) == hash(value)
            assert value._replace() == value and value._asdict() == dict(zip(value._fields, value))

    def test_to_dict_field_order(self):
        report = certify_combined_bound(
            identity_circuit(), NoiseModel(kind="depolarizing", strength=0.3), identity_parity()
        )
        d = report.to_dict()
        assert list(d) == ["per_input", "alpha", "p", "bound_holds", "worst_margin"]
        assert list(d["per_input"][0]) == ["x", "ideal_success", "actual_success", "inaccuracy_x"]


class TestRepetitionCode:
    """A 3-qubit bit-flip code read out by majority vote: the final result
    fails far less often than the final state differs from the ideal one."""

    @staticmethod
    def majority_vote(inputs=("000", "111")):
        """inputs[0] and inputs[1] decode to "0" and "1" by majority vote."""
        weight = np.array([bin(b).count("1") for b in range(8)])
        effects = {"0": np.diag((weight <= 1).astype(float)), "1": np.diag((weight >= 2).astype(float))}
        return OverallComputation(
            inputs=inputs,
            outputs=("0", "1"),
            truth_table=dict(zip(inputs, ("0", "1"))),
            init=basis_encoding(3, inputs),
            povm=effects,
        )

    @pytest.mark.parametrize("s", [1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3, 0.6, 1.0])
    def test_decoded_failure_and_alpha_match_their_closed_forms(self, s):
        # depolarizing s on one I gate per qubit flips each qubit with q = s/2
        circ = Circuit(num_qubits=3, gates=[Gate(name="I", targets=(k,)) for k in range(3)])
        report = certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=s), self.majority_vote())
        q = s / 2
        failure = 3 * q ** 2 - 2 * q ** 3  # two or three of the three bits flipped
        assert report.p == pytest.approx(0.0, abs=1e-12)
        assert report.alpha == pytest.approx(2 * (1 - (1 - q) ** 3), abs=1e-12)
        for rec in report.per_input:
            assert 1.0 - rec.actual_success == pytest.approx(failure, abs=1e-12)
        # the planner's level-1 law lies on the safe side of this code
        assert logical_gate_error(q, 1 / 3, 1) >= failure - 1e-12

    @pytest.mark.parametrize("s", [1e-3, 1e-2, 0.1])
    def test_noisy_encoding_matches_the_sequential_oracle(self, s):
        # the encoder copies qubit 0 onto qubits 1 and 2, and is itself noisy
        gates = [Gate(name="CNOT", targets=(0, 1)), Gate(name="CNOT", targets=(0, 2))]
        circ = Circuit(num_qubits=3, gates=gates + [Gate(name="I", targets=(k,)) for k in range(3)])
        comp = self.majority_vote(("000", "100"))
        report = certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=s), comp)
        assert report.bound_holds is True
        for rec, rho, y in zip(report.per_input, comp.init, comp.truth_table):
            actual = helpers.sequential_noisy_oracle(circ, s, rho)
            ideal = helpers.sequential_noisy_oracle(circ, 0.0, rho)
            effect = comp.povm[comp.outputs.index(y)]
            assert rec.actual_success == pytest.approx(np.trace(effect @ actual).real, abs=1e-12)
            assert rec.inaccuracy_x == pytest.approx(helpers.svd_trace_norm(actual - ideal), abs=1e-12)


class TestFiveQubitCode:
    """The [[5,1,3]] code corrects any single-qubit error: decoded, its
    logical bit fails at O(s^2) while alpha, which bounds the state, is O(s)."""

    STABILIZERS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")

    @staticmethod
    def pauli(word):
        return helpers._pauli_string(dict(enumerate(word)), len(word))

    @classmethod
    def computation(cls):
        """Inputs "0" and "1" prepared as the codewords (ZZZZZ = +1 and -1),
        read out by E_b = sum over F of F |b_L><b_L| F+, F in I and the 15
        weight-1 Paulis."""
        code = np.eye(32)
        for g in cls.STABILIZERS:
            code = code @ (np.eye(32) + cls.pauli(g)) / 2
        zzzzz = cls.pauli("ZZZZZ")
        words = [code @ (np.eye(32) + sign * zzzzz) / 2 for sign in (1, -1)]  # rank-1 projectors
        errors = [cls.pauli("IIIII")] + [
            cls.pauli("I" * q + e + "I" * (4 - q)) for q in range(5) for e in "XYZ"
        ]
        effects = {b: sum(f @ w @ f.conj().T for f in errors) for b, w in zip("01", words)}
        return OverallComputation(
            inputs=("0", "1"), outputs=("0", "1"), truth_table={"0": "0", "1": "1"},
            init=dict(zip("01", words)), povm=effects,
        )

    @pytest.mark.parametrize("s", [1e-3, 1e-2, 0.1])
    def test_decoded_failure_is_quadratic_and_matches_the_sequential_oracle(self, s):
        comp = self.computation()
        np.testing.assert_allclose(comp.povm.sum(axis=0), np.eye(32), atol=1e-12)
        circ = Circuit(num_qubits=5, gates=[Gate(name="I", targets=(k,)) for k in range(5)])
        report = certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=s), comp)
        assert report.bound_holds is True
        for rec, rho, effect in zip(report.per_input, comp.init, comp.povm):
            actual = helpers.sequential_noisy_oracle(circ, s, rho)
            assert rec.actual_success == pytest.approx(np.trace(effect @ actual).real, abs=1e-12)
        failure = max(1.0 - rec.actual_success for rec in report.per_input)
        if s <= 1e-2:
            # two of the five qubits hit, X or Y on the logical bit: about 3.75 s^2
            assert failure <= 4 * s ** 2
        if s == 1e-3:
            assert report.alpha >= 1000 * failure


class TestRepetitionsFromResult:
    """The repetitions a majority vote needs for success t: fed the
    certified bound p + alpha, which covers the final state, or the decoded
    failure, which is exact for the final result of the simulated instance."""

    TARGETS = (1 - 1e-6, 1 - 1e-9, 1 - 1e-12)

    @pytest.mark.parametrize(
        "num_qubits, computation, k_bound, k_decoded",
        [
            (3, TestRepetitionCode.majority_vote, [5, 9, 11], [1, 3, 5]),
            (5, TestFiveQubitCode.computation, [7, 11, 15], [3, 3, 5]),
        ],
        ids=["repetition", "five_qubit"],
    )
    def test_counts_from_the_bound_and_from_the_decoded_failure(
        self, num_qubits, computation, k_bound, k_decoded
    ):
        circ = Circuit(num_qubits=num_qubits, gates=[Gate(name="I", targets=(k,)) for k in range(num_qubits)])
        report = certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=1e-3), computation())
        failures = (report.p + report.alpha, max(1.0 - rec.actual_success for rec in report.per_input))
        counts = [[min_repetitions(f, t) for t in self.TARGETS] for f in failures]
        assert counts == [k_bound, k_decoded]
        for f, ks in zip(failures, counts):
            for k, t in zip(ks, self.TARGETS):
                assert majority_success(f, k) >= t
        assert all(kb >= kd for kb, kd in zip(*counts))


# syndrome (d0 ^ d1, d1 ^ d2) -> the data qubit it blames
BLAMED = {"10": 0, "11": 1, "01": 2}


def corrected_majority(bits, syndrome):
    """Majority of data bits 0-2 after flipping the one that syndrome blames."""
    data = [int(b) for b in bits[:3]]
    if syndrome in BLAMED:
        data[BLAMED[syndrome]] ^= 1
    return str(int(sum(data) >= 2))


def data_majority(bits):
    return corrected_majority(bits, "00")


def one_syndrome(bits):
    return corrected_majority(bits, bits[3:5])


def agreeing_syndromes(bits):
    return corrected_majority(bits, bits[3:5] if bits[3:5] == bits[5:7] else "00")


class TestFaultPairCounts:
    """The planner's level-1 law eps0^2 / eps_th, checked on small gadgets
    of the bit-flip code: a gadget's exact decoded failure f(s) under the
    verifier's depolarizing noise against its count of failing faults.  A
    fault-tolerant gadget fails at order s^2 with coefficient A, the count
    of malignant fault pairs, and eps_th = 1/A (Aliferis, Gottesman and
    Preskill, quant-ph/0504218).  One I per data qubit 0-2 opens each
    gadget; each extraction round then copies the parities d0^d1 and d1^d2
    onto a fresh ancilla pair (a, b) by the CNOTs 0->a, 1->a, 1->b, 2->b."""

    ROWS = [
        # rounds, decoder, order of the leading term, its exact coefficient
        pytest.param(0, data_majority, 2, Fraction(3, 4), id="idle"),
        pytest.param(1, data_majority, 2, Fraction(4), id="one_round_majority"),
        # one CNOT fault both flips a data bit and writes a wrong syndrome
        # (Shor, quant-ph/9605011): correcting by it fails at first order
        pytest.param(1, one_syndrome, 1, Fraction(1, 2), id="one_round_syndrome"),
        pytest.param(2, agreeing_syndromes, 2, Fraction(73, 8), id="two_rounds_agreeing"),
    ]
    FAULT_TOLERANT = [row for row in ROWS if row.values[2] == 2]

    @staticmethod
    def gadget(rounds, decode):
        n = 3 + 2 * rounds
        gates = [Gate(name="I", targets=(q,)) for q in range(3)]
        for a in range(3, n, 2):
            gates += [Gate(name="CNOT", targets=t) for t in ((0, a), (1, a), (1, a + 1), (2, a + 1))]
        inputs = ("000".ljust(n, "0"), "111".ljust(n, "0"))
        outcome = np.array([decode(format(b, f"0{n}b")) for b in range(2 ** n)])
        comp = OverallComputation(
            inputs=inputs, outputs=("0", "1"), truth_table={x: decode(x) for x in inputs},
            init=basis_encoding(n, inputs), povm={y: np.diag((outcome == y).astype(float)) for y in "01"},
        )
        return Circuit(num_qubits=n, gates=gates), comp

    @staticmethod
    def failures(circ, comp, s):
        """Per input, the probability of the wrong outcome: a sum of small
        terms, so it keeps its relative precision as s goes to 0."""
        out = evolve(circ, NoiseModel(kind="depolarizing", strength=s), comp.init)
        wrong = comp.povm[[1 - comp.outputs.index(y) for y in comp.truth_table]]
        return np.einsum("kij,kji->k", wrong, out).real

    @pytest.mark.parametrize("rounds, decode, order, count", ROWS)
    def test_count_matches_the_simulated_coefficient(self, rounds, decode, order, count):
        circ, comp = self.gadget(rounds, decode)
        for x in comp.inputs:
            coefficients = helpers.fault_counts(circ, x, decode)
            assert coefficients[order - 1] == count
            if order == 2:
                assert coefficients[0] == 0
        # h(s) = f(s) / s^order; 2 h(s) - h(2s) cancels the next order's term
        h1, h2 = (self.failures(circ, comp, s) / s ** order for s in (1e-5, 2e-5))
        np.testing.assert_allclose(2 * h1 - h2, float(count), rtol=1e-5)

    @pytest.mark.parametrize("rounds, decode, order, count", FAULT_TOLERANT)
    def test_planner_law_covers_the_failure(self, rounds, decode, order, count):
        circ, comp = self.gadget(rounds, decode)
        for s in (1e-4, 1e-3, 1e-2, 0.1):
            assert np.all(self.failures(circ, comp, s) <= float(count) * s ** 2)
            if count > 1:
                assert logical_gate_error(s, float(1 / count), 1) == pytest.approx(float(count) * s ** 2)
            else:  # the idle gadget's 1/A lies above 1, outside the planner's domain
                with pytest.raises(BadProbabilityError, match="eps_th"):
                    logical_gate_error(s, float(1 / count), 1)

    @pytest.mark.parametrize("rounds, decode, order, count", ROWS)
    def test_success_matches_the_sequential_oracle(self, rounds, decode, order, count):
        circ, comp = self.gadget(rounds, decode)
        s = 1e-2
        report = certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=s), comp)
        assert report.bound_holds is True
        failures = self.failures(circ, comp, s)
        for rec, rho, y, failure in zip(report.per_input, comp.init, comp.truth_table, failures):
            actual = helpers.sequential_noisy_oracle(circ, s, rho)
            effect = comp.povm[comp.outputs.index(y)]
            assert rec.actual_success == pytest.approx(np.trace(effect @ actual).real, abs=1e-12)
            assert 1.0 - rec.actual_success == pytest.approx(failure, abs=1e-12)

    @pytest.mark.parametrize("rounds, decode, order, count", ROWS)
    def test_alpha_estimates_sit_under_the_exact_diamond_distance(self, rounds, decode, order, count):
        # basis alpha <= a 16-trial search <= the exact alpha over all inputs
        # <= the telescoped bound, on gadgets of I and CNOT only
        circ, comp = self.gadget(rounds, decode)
        for seed, s in enumerate((1e-3, 1e-2, 0.1)):
            noise = NoiseModel(kind="depolarizing", strength=s)
            alpha = certify_combined_bound(circ, noise, comp).alpha
            search = alpha_random_search(implemented_channel(circ, noise), compile_ideal(circ),
                                         LinkingMaps(), trials=16, seed=seed)
            exact = helpers.clifford_diamond(circ, s)
            assert alpha <= search + 1e-9 and search <= exact + 1e-9, (s, alpha, search, exact)
            assert exact <= helpers.diamond_bound(circ, noise) + 1e-12


class TestExactBasisOracle:
    """The verifier's fields against helpers.exact_basis_records, on
    circuits of I, X, Z, CNOT and CZ, whose noisy outputs on basis inputs
    are exact distributions over bit strings.  ideal_success is exact, as
    these gates' unitary has entries 0 and +-1.  actual_success,
    inaccuracy_x and alpha lie within FIELD_TOL of the exact values, on
    either side: over 600 seeded random circuits and the four gadgets at
    these strengths, the largest gaps were 7.9e-16, 8.6e-16 and 7.9e-16."""

    STRENGTHS = (1e-6, 1e-4, 0.01, 0.3)
    FIELD_TOL = 1e-15

    def check(self, circ, comp, s):
        report = certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=s), comp)
        exact = helpers.exact_basis_records(circ, comp, s)
        for rec, (ideal, actual, gap) in zip(report.per_input, exact):
            assert rec.ideal_success == ideal, (s, rec)
            assert abs(Fraction(rec.actual_success) - actual) <= self.FIELD_TOL, (s, rec)
            assert abs(Fraction(rec.inaccuracy_x) - gap) <= self.FIELD_TOL, (s, rec)
        assert abs(Fraction(report.alpha) - max(gap for *_, gap in exact)) <= self.FIELD_TOL

    def test_alpha_keeps_every_small_eigenvalue(self):
        # the difference's eigenvalues run down to about s**2 = 1e-12 and
        # below; dropping each below 1e-12 read alpha 1.56e-12 low
        n, s = 5, 1e-6
        gates = [Gate(name="CNOT", targets=(q, q + 1)) for _ in range(3) for q in range(n - 1)]
        circ = Circuit(num_qubits=n, gates=gates + [Gate(name="I", targets=(q,)) for q in range(n)])
        x = "0" * n
        comp = OverallComputation((x,), tuple(basis_readout(n)), {x: x}, basis_encoding(n, [x]), basis_readout(n))
        exact = helpers.exact_basis_records(circ, comp, s)[0][2]
        assert float(exact) == 2.299986887547212e-05
        alpha = certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=s), comp).alpha
        assert abs(Fraction(alpha) - exact) <= 1e-14

    @pytest.mark.parametrize("rounds, decode, order, count", TestFaultPairCounts.ROWS)
    def test_gadget_codewords(self, rounds, decode, order, count):
        circ, comp = TestFaultPairCounts.gadget(rounds, decode)
        for s in self.STRENGTHS:
            self.check(circ, comp, s)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_permutation_circuits(self, seed):
        # up to 6 qubits and 12 gates, up to 4 basis inputs, a random set of
        # measured qubits, and each input's ideal outcome as its truth
        rng = np.random.default_rng(seed)
        n, gates = int(rng.integers(1, 7)), []
        for _ in range(int(rng.integers(0, 13))):
            if n >= 2 and rng.random() < 0.5:
                targets = tuple(map(int, rng.choice(n, size=2, replace=False)))
                gates.append(Gate(name=("CNOT", "CZ")[int(rng.integers(2))], targets=targets))
            else:
                gates.append(Gate(name="IXZ"[int(rng.integers(3))], targets=(int(rng.integers(n)),)))
        circ = Circuit(num_qubits=n, gates=gates)
        measured = tuple(map(int, rng.permutation(n)[: int(rng.integers(1, n + 1))]))
        inputs = sorted({format(int(i), f"0{n}b") for i in rng.integers(0, 2 ** n, size=4)})
        truth = {}
        for x in inputs:
            (bits,) = helpers.exact_basis_output(circ, x, 0.0)
            truth[x] = "".join(bits[q] for q in measured)
        povm = basis_readout(n, measured)
        comp = OverallComputation(inputs, tuple(povm), truth, basis_encoding(n, inputs), povm)
        for s in self.STRENGTHS:
            self.check(circ, comp, s)


class TestMixing:
    def test_frozen_mixture(self):
        # frozen: 0.9 |0><0| + 0.1 I/2 -> diag(0.95, 0.05), at trace distance 0.1 from |0><0|
        check = mixing_inaccuracy_bound_check(GROUND, MIXED, 0.1)
        assert check.measured == pytest.approx(0.1, abs=1e-15)

    def test_orthogonal_error_saturates_bound(self):
        # frozen: err orthogonal to ideal gives measured == 2*eps exactly
        err = DensityMatrix([[0, 0], [0, 1]])
        for eps in (0.01, 0.05, 0.25):
            check = mixing_inaccuracy_bound_check(GROUND, err, eps)
            assert check.holds is True
            assert check.measured == pytest.approx(2.0 * eps, abs=1e-12)
            assert check.bound == pytest.approx(2.0 * eps, abs=1e-15)

    def test_nonorthogonal_error_stays_strictly_below(self):
        plus = DensityMatrix(np.full((2, 2), 0.5))
        check = mixing_inaccuracy_bound_check(GROUND, plus, 0.2)
        assert check.holds is True
        assert check.measured < check.bound - 1e-6

    def test_checks_epsilon_once(self, monkeypatch):
        import ftqc.qcc

        check, calls = ftqc.qcc._check_unit_interval, []

        def counting_check(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(ftqc.qcc, "_check_unit_interval", counting_check)
        assert mixing_inaccuracy_bound_check(GROUND, MIXED, 0.25).bound == 0.5
        assert calls == [("eps_qc", 0.25)]

    @pytest.mark.parametrize("eps, measured", [(1.0, 2.0), (0.6, 1.2), (0.5, 1.0)])
    def test_states_within_tolerance_are_not_refused_for_their_difference(self, eps, measured):
        # each state's Hermiticity defect is 9.9e-10; mixture - ideal has up to 1.98e-9
        d = 4.95e-10
        ideal = DensityMatrix([[1, 1j * d], [1j * d, 0]])
        err = DensityMatrix([[0, -1j * d], [-1j * d, 1]])
        check = mixing_inaccuracy_bound_check(ideal, err, eps)
        assert check.holds is True
        assert check.measured == pytest.approx(measured, abs=1e-12)
        assert check.bound == pytest.approx(measured, abs=1e-12)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(BadProbabilityError):
            mixing_inaccuracy_bound_check(GROUND, MIXED, 1.5)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mixing_inaccuracy_bound_check(GROUND, DensityMatrix(np.eye(4) / 4.0), 0.1)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_bound_holds_for_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        ideal = DensityMatrix(helpers.ginibre_density(dim, rng))
        err = DensityMatrix(helpers.ginibre_density(dim, rng))
        eps = float(rng.uniform(0.0, 1.0))
        check = mixing_inaccuracy_bound_check(ideal, err, eps)
        assert check.holds is True
        assert check.measured <= check.bound + 1e-9
