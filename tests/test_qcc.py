import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ftqc import (
    Circuit,
    Gate,
    InputRecord,
    LinkingMaps,
    NoiseModel,
    QccReport,
    alpha_random_search,
    basis_encoding,
    basis_readout,
    certify_combined_bound,
    compile_ideal,
    evolve,
    implemented_channel,
    make_state,
    mix_error_state,
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

GROUND = make_state([[1, 0], [0, 0]])
MIXED = make_state(np.eye(2) / 2.0)


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

    def test_random_search_on_four_qubit_ladder_is_fast(self):
        circ = ladder(4)
        start = time.perf_counter()
        P = implemented_channel(circ, NoiseModel(kind="depolarizing", strength=0.01))
        alpha = alpha_random_search(P, compile_ideal(circ), LinkingMaps(), trials=200, seed=0)
        assert time.perf_counter() - start < 2.0
        assert 0.0 < alpha <= 2.0

    def test_random_search_rejects_zero_trials(self):
        P = implemented_channel(identity_circuit(), NoiseModel(kind="none"))
        G = compile_ideal(identity_circuit())
        with pytest.raises(DomainError):
            alpha_random_search(P, G, LinkingMaps(), trials=0, seed=0)


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
        from ftqc import HermitianOperator

        comp = OverallComputation(
            inputs=("00",),
            outputs=("0", "1"),
            truth_table={"00": "0"},
            init=basis_encoding(2, ["00"]),
            povm={"0": HermitianOperator(even), "1": HermitianOperator(odd)},
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
            rho = comp.init[x].entries
            ideal = helpers.sequential_noisy_oracle(circ, 0.0, rho)
            actual = helpers.sequential_noisy_oracle(circ, lam, rho)
            effect = comp.povm[x[-1]].entries
            rec = records[x]
            assert rec.ideal_success == pytest.approx(np.trace(effect @ ideal).real, abs=1e-12)
            assert rec.actual_success == pytest.approx(np.trace(effect @ actual).real, abs=1e-12)
            assert rec.inaccuracy_x == pytest.approx(helpers.svd_trace_norm(actual - ideal), abs=1e-12)

    def test_each_effect_spectrum_checked_once(self, monkeypatch):
        # all 8 basis inputs of a 3-qubit ladder read out by 2 distinct effects
        n = 3
        gates = [Gate(name="H", targets=(0,))]
        gates += [Gate(name="CNOT", targets=(q, q + 1)) for q in range(n - 1)]
        inputs = [format(i, f"0{n}b") for i in range(2 ** n)]
        comp = OverallComputation(
            inputs=tuple(inputs),
            outputs=("0", "1"),
            truth_table={x: x[-1] for x in inputs},
            init=basis_encoding(n, inputs),
            povm=basis_readout(n, measured=(n - 1,)),
        )
        effects = [e.entries for e in comp.povm.values()]
        checks = [0] * len(effects)
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            # a stack of matrices; output states have trace 1, these effects 4
            for m in np.reshape(a, (-1,) + effects[0].shape):
                for i, e in enumerate(effects):
                    checks[i] += np.array_equal(m, e)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        circ = Circuit(num_qubits=n, gates=gates)
        for runs in (1, 2):
            certify_combined_bound(circ, NoiseModel(kind="depolarizing", strength=0.05), comp)
            assert checks == [runs, runs]

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
            if noise.kind != "none":
                corrupt(out[1])
            return out

        monkeypatch.setattr(ftqc.qcc, "evolve", corrupted_evolve)
        with pytest.raises(error, match=message):
            certify_combined_bound(
                identity_circuit(2), NoiseModel(kind="depolarizing", strength=0.1), identity_parity(2)
            )

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

    def test_report_validates_alpha_consistency(self):
        rec = InputRecord(x="0", ideal_success=1.0, actual_success=0.9, inaccuracy_x=0.2)
        with pytest.raises(DomainError):
            QccReport(per_input=(rec,), alpha=0.5, p=0.0, bound_holds=True, worst_margin=0.1)

    def test_report_validates_bound_flag(self):
        rec = InputRecord(x="0", ideal_success=1.0, actual_success=0.4, inaccuracy_x=0.2)
        # failure 0.6 > p + alpha = 0.2, so bound_holds=True is a contradiction
        with pytest.raises(DomainError):
            QccReport(per_input=(rec,), alpha=0.2, p=0.0, bound_holds=True, worst_margin=-0.4)

    def test_to_dict_field_order(self):
        report = certify_combined_bound(
            identity_circuit(), NoiseModel(kind="depolarizing", strength=0.3), identity_parity()
        )
        d = report.to_dict()
        assert list(d) == ["per_input", "alpha", "p", "bound_holds", "worst_margin"]
        assert list(d["per_input"][0]) == ["x", "ideal_success", "actual_success", "inaccuracy_x"]


class TestMixing:
    def test_frozen_mixture(self):
        # frozen: 0.9 |0><0| + 0.1 I/2 -> diag(0.95, 0.05)
        mixed = mix_error_state(GROUND, MIXED, 0.1)
        np.testing.assert_allclose(mixed.entries, np.diag([0.95, 0.05]), atol=1e-15)

    def test_orthogonal_error_saturates_bound(self):
        # frozen: err orthogonal to ideal gives measured == 2*eps exactly
        err = make_state([[0, 0], [0, 1]])
        for eps in (0.01, 0.05, 0.25):
            check = mixing_inaccuracy_bound_check(GROUND, err, eps)
            assert check.holds is True
            assert check.measured == pytest.approx(2.0 * eps, abs=1e-12)
            assert check.bound == pytest.approx(2.0 * eps, abs=1e-15)

    def test_nonorthogonal_error_stays_strictly_below(self):
        plus = make_state(np.full((2, 2), 0.5))
        check = mixing_inaccuracy_bound_check(GROUND, plus, 0.2)
        assert check.holds is True
        assert check.measured < check.bound - 1e-6

    def test_rejects_bad_epsilon(self):
        with pytest.raises(BadProbabilityError):
            mix_error_state(GROUND, MIXED, 1.5)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mix_error_state(GROUND, make_state(np.eye(4) / 4.0), 0.1)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_bound_holds_for_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        ideal = make_state(helpers.ginibre_density(dim, rng))
        err = make_state(helpers.ginibre_density(dim, rng))
        eps = float(rng.uniform(0.0, 1.0))
        check = mixing_inaccuracy_bound_check(ideal, err, eps)
        assert check.holds is True
        assert check.measured <= check.bound + 1e-9
