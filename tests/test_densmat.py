import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ftqc import (
    Circuit,
    DensityMatrix,
    Gate,
    HermitianOperator,
    NoiseModel,
    OverallComputation,
    certify_combined_bound,
    densmat,
    effect_probability,
    trace_norm,
)
from ftqc.errors import (
    BadProbabilityError,
    DimensionMismatchError,
    DomainError,
    NotAnEffectError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
    NotUnitaryError,
)

PLUS = DensityMatrix(np.full((2, 2), 0.5))


def maximally_mixed(dim):
    return DensityMatrix(np.eye(dim) / dim)


class TestValidation:
    def test_valid_state_roundtrip(self):
        rho = DensityMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert rho.entries.shape == (2, 2)
        np.testing.assert_allclose(rho.entries, [[0.5, 0.5], [0.5, 0.5]])

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitianError):
            DensityMatrix([[1.0, 0.5], [0.0, 0.0]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotUnitTraceError):
            DensityMatrix([[0.7, 0.0], [0.0, 0.7]])

    def test_rejects_negative_eigenvalue(self):
        # Hermitian, unit trace, but indefinite
        with pytest.raises(NotPositiveError):
            DensityMatrix([[1.5, 0.0], [0.0, -0.5]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.ones((2, 3)))

    def test_rejects_above_dimension_cap(self):
        big = np.eye(512) / 512.0
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(big)

    def test_tolerates_tiny_defects(self):
        rho = DensityMatrix([[1.0 + 1e-12, 1e-12j], [0.0, -1e-12]])
        assert rho.entries.shape == (2, 2)

    def test_entries_are_read_only(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 9.0

    @pytest.mark.parametrize("build", [DensityMatrix, HermitianOperator])
    def test_a_wrapper_exposes_only_its_entries(self, build):
        assert [name for name in dir(build([[1]])) if not name.startswith("_")] == ["entries"]

    def test_hermitian_operator_rejects(self):
        with pytest.raises(NotHermitianError):
            HermitianOperator(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("build", [DensityMatrix, HermitianOperator])
    def test_rejects_non_finite_entry(self, build, bad):
        # eigvalsh cannot take a NaN or inf, so one is refused first, under its own text
        m = np.eye(2, dtype=complex) / 2.0
        m[1, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            build(m)

    def test_overflowing_trace_is_refused_as_a_trace_without_a_warning(self):
        # the suite turns a RuntimeWarning into an error; the trace is inf or NaN
        with pytest.raises(NotUnitTraceError, match="^trace is "):
            DensityMatrix(np.diag([1e308, 1e308, -1e308, -1e308]))

    def test_a_state_is_a_hermitian_operator_but_not_conversely(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert isinstance(rho, HermitianOperator)
        assert effect_probability(rho, rho) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(DomainError, match="^state must be a DensityMatrix, got HermitianOperator$"):
            effect_probability(HermitianOperator(rho.entries), rho)


class TestTraceNorm:
    def test_ground_vs_maximally_mixed(self):
        # frozen: eigenvalues of |0><0| - I/2 are +1/2 and -1/2
        assert trace_norm(DensityMatrix([[1, 0], [0, 0]]).entries - maximally_mixed(2).entries) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states_at_two(self):
        a = DensityMatrix([[1, 0], [0, 0]])
        b = DensityMatrix([[0, 0], [0, 1]])
        assert trace_norm(a.entries - b.entries) == pytest.approx(2.0, abs=1e-12)

    def test_identical_states_exactly_zero(self):
        rho = DensityMatrix(helpers.ginibre_density(3, np.random.default_rng(0)))
        assert trace_norm(rho.entries - rho.entries) == 0.0

    def test_accepts_wrapper_types(self):
        rho = maximally_mixed(2)
        assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)
        assert trace_norm(HermitianOperator(rho.entries)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitianError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_checks_its_operand_as_hermitian(self):
        with pytest.raises(NotHermitianError, match=r"^Hermiticity defect 1\.000e\+00 exceeds 1e-09$"):
            trace_norm(np.array([[0, 1], [0, 0]]))

    def test_reads_a_wrapper_as_checked(self, monkeypatch):
        calls = []
        monkeypatch.setattr(densmat, "_check_hermitian", calls.append)
        assert trace_norm(HermitianOperator(np.diag([1.0, -1.0]))) == 2.0
        assert trace_norm(PLUS) == 1.0
        assert calls == []

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_svd_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm = (z + z.conj().T) / 2.0
        assert trace_norm(herm) == pytest.approx(helpers.svd_trace_norm(herm), rel=1e-10, abs=1e-10)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_axioms(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        a = helpers.ginibre_density(dim, rng)
        b = helpers.ginibre_density(dim, rng)
        c = helpers.ginibre_density(dim, rng)
        d_ab = trace_norm(a - b)
        assert d_ab >= 0.0
        # triangle inequality
        assert d_ab <= trace_norm(a - c) + trace_norm(c - b) + 1e-10
        # state pairs live within distance 2
        assert d_ab <= 2.0 + 1e-10
        # unitary invariance
        u = helpers.haar_unitary(dim, rng)
        rotated = trace_norm(u @ (a - b) @ u.conj().T)
        assert rotated == pytest.approx(d_ab, abs=1e-10)

    def test_distances_of_an_exactly_hermitian_difference_are_unchanged(self):
        # the Hermitian part of an exactly Hermitian difference is the difference, bit for bit
        rng = np.random.default_rng(23)
        a, b = (np.array([helpers.ginibre_density(4, rng) for _ in range(16)]) for _ in range(2))
        a, b = (a + a.conj().swapaxes(1, 2)) / 2, (b + b.conj().swapaxes(1, 2)) / 2
        assert densmat._distances(a, b).tolist() == densmat._trace_norms(a - b).tolist()

    def test_zero_only_for_zero_operator(self):
        rng = np.random.default_rng(3)
        a = helpers.ginibre_density(4, rng)
        b = helpers.ginibre_density(4, rng)
        assert trace_norm(a - b) > 1e-3  # generic distinct states are far apart


class TestEffectProbability:
    def test_plus_state_ground_effect(self):
        e0 = HermitianOperator(np.diag([1.0, 0.0]).astype(complex))
        assert effect_probability(PLUS, e0) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_effect_above_identity(self):
        with pytest.raises(NotAnEffectError):
            effect_probability(maximally_mixed(2), HermitianOperator(2.0 * np.eye(2)))

    def test_rejects_negative_effect(self):
        with pytest.raises(NotAnEffectError):
            effect_probability(maximally_mixed(2), HermitianOperator(-0.1 * np.eye(2)))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            effect_probability(maximally_mixed(4), HermitianOperator(np.eye(2)))

    def test_result_clamped_to_unit_interval(self):
        rho = maximally_mixed(2)
        full = HermitianOperator(np.eye(2))
        p = effect_probability(rho, full)
        assert 0.0 <= p <= 1.0
        assert p == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_complete_povm_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        rho = DensityMatrix(helpers.ginibre_density(dim, rng))
        # random complete POVM: unitary conjugates of a projector resolution
        u = helpers.haar_unitary(dim, rng)
        effects = [
            HermitianOperator(u @ np.diag(row).astype(complex) @ u.conj().T)
            for row in np.eye(dim)
        ]
        total = sum(effect_probability(rho, e) for e in effects)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestToleranceEdges:
    """The positivity and effect checks at 1e-9 relative 1e-3 beyond and
    within the tolerance, for a spectrum placed on the diagonal or rotated
    by a Haar unitary, at d = 2, 16 and 256."""

    OUTSIDE, INSIDE = 1e-9 * (1 + 1e-3), 1e-9 * (1 - 1e-3)

    @staticmethod
    def matrix(spectrum, basis, seed):
        if basis == "diagonal":
            return np.diag(spectrum).astype(complex)
        u = helpers.haar_unitary(len(spectrum), np.random.default_rng(seed))
        return (u * spectrum) @ u.conj().T

    @staticmethod
    def state_spectrum(dim, lowest):
        # the rest share 1 - lowest, so the trace is 1
        return np.array([lowest] + [(1.0 - lowest) / (dim - 1)] * (dim - 1))

    @pytest.mark.parametrize("basis", ["diagonal", "haar"])
    @pytest.mark.parametrize("dim", [2, 16, 256])
    def test_state_just_below_the_positivity_edge_is_refused(self, dim, basis):
        m = self.matrix(self.state_spectrum(dim, -self.OUTSIDE), basis, dim)
        with pytest.raises(NotPositiveError, match=r"^smallest eigenvalue -1\.001e-09 below -1e-09$"):
            DensityMatrix(m)

    @pytest.mark.parametrize("basis", ["diagonal", "haar"])
    @pytest.mark.parametrize("dim", [2, 16, 256])
    def test_state_just_above_the_positivity_edge_passes(self, dim, basis):
        rho = DensityMatrix(self.matrix(self.state_spectrum(dim, -self.INSIDE), basis, dim))
        assert rho.entries.shape == (dim, dim)

    @staticmethod
    def effect_spectrum(dim, end, value):
        # one eigenvalue at the edge, the rest at 1/2
        spectrum = np.full(dim, 0.5)
        spectrum[0 if end == "lowest" else -1] = value
        return spectrum

    @pytest.mark.parametrize("basis", ["diagonal", "haar"])
    @pytest.mark.parametrize("dim", [2, 16, 256])
    @pytest.mark.parametrize(
        "end, value, message",
        [
            ("lowest", -OUTSIDE, r"^effect spectrum \[-1\.001e-09, 5\.000e-01\] leaves \[0, 1\]$"),
            ("highest", 1.0 + OUTSIDE, r"^effect spectrum \[5\.000e-01, 1\.000e\+00\] leaves \[0, 1\]$"),
        ],
        ids=["lowest", "highest"],
    )
    def test_effect_just_outside_the_unit_interval_is_refused(self, dim, basis, end, value, message):
        effect = HermitianOperator(self.matrix(self.effect_spectrum(dim, end, value), basis, dim))
        with pytest.raises(NotAnEffectError, match=message):
            effect_probability(maximally_mixed(dim), effect)

    @pytest.mark.parametrize("basis", ["diagonal", "haar"])
    @pytest.mark.parametrize("dim", [2, 16, 256])
    @pytest.mark.parametrize("end, value", [("lowest", -INSIDE), ("highest", 1.0 + INSIDE)], ids=["lowest", "highest"])
    def test_effect_just_inside_the_unit_interval_passes(self, dim, basis, end, value):
        spectrum = self.effect_spectrum(dim, end, value)
        effect = HermitianOperator(self.matrix(spectrum, basis, dim))
        assert effect_probability(maximally_mixed(dim), effect) == pytest.approx(spectrum.mean(), abs=1e-12)


def one_qubit_computation(povm):
    return OverallComputation(("0",), ("0", "1"), {"0": "0"}, {"0": np.diag([1, 0])}, povm)


def tilted_readout_after_h():
    # each effect is off by d < 1e-9, but the ideal outcome totals are off by 2d
    d = 0.9e-9
    comp = one_qubit_computation({"0": [[1 + d, d], [d, 0]], "1": [[0, 0], [0, 1 + d]]})
    return certify_combined_bound(Circuit(1, [Gate((0,), name="H")]), NoiseModel("none"), comp)


class TestVerdictTexts:
    """Every tolerance verdict, through the public entry that reaches it, word for word."""

    @pytest.mark.parametrize(
        "build, error, text",
        [
            (lambda: HermitianOperator([[0, 1], [0, 0]]), NotHermitianError,
             "Hermiticity defect 1.000e+00 exceeds 1e-09"),
            (lambda: DensityMatrix(np.eye(2)), NotUnitTraceError, "trace is 2+0j, expected 1"),
            (lambda: DensityMatrix([[1.5, 0], [0, -0.5]]), NotPositiveError,
             "smallest eigenvalue -5.000e-01 below -1e-09"),
            (lambda: effect_probability(PLUS, HermitianOperator(np.diag([2, 0]))), NotAnEffectError,
             "effect spectrum [0.000e+00, 2.000e+00] leaves [0, 1]"),
            (lambda: Gate((0,), matrix=[[1, 1], [0, 1]]), NotUnitaryError,
             "gate matrix unitarity defect 1.000e+00 exceeds 1e-09"),
            (lambda: one_qubit_computation({"0": np.eye(2), "1": np.eye(2)}), NotAnEffectError,
             "POVM completeness defect 1.000e+00 exceeds 1e-09"),
            (tilted_readout_after_h, BadProbabilityError, "outcome probabilities sum to 1.0000000018, expected 1"),
        ],
        ids=["hermiticity", "trace", "positivity", "effect_spectrum", "unitarity", "completeness", "totals"],
    )
    def test_refusal_text(self, build, error, text):
        with pytest.raises(error) as refused:
            build()
        assert str(refused.value) == text
