import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ftqc import (
    DensityMatrix,
    HermitianOperator,
    effect_probability,
    make_state,
    trace_norm,
)
from ftqc.errors import (
    DimensionMismatchError,
    DomainError,
    NotAnEffectError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
)

PLUS = make_state(np.full((2, 2), 0.5))


def maximally_mixed(dim):
    return make_state(np.eye(dim) / dim)


class TestValidation:
    def test_valid_state_roundtrip(self):
        rho = make_state([[0.5, 0.5], [0.5, 0.5]])
        assert rho.dim == 2
        np.testing.assert_allclose(rho.entries, [[0.5, 0.5], [0.5, 0.5]])

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitianError):
            make_state([[1.0, 0.5], [0.0, 0.0]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotUnitTraceError):
            make_state([[0.7, 0.0], [0.0, 0.7]])

    def test_rejects_negative_eigenvalue(self):
        # Hermitian, unit trace, but indefinite
        with pytest.raises(NotPositiveError):
            make_state([[1.5, 0.0], [0.0, -0.5]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            make_state(np.ones((2, 3)))

    def test_rejects_above_dimension_cap(self):
        big = np.eye(512) / 512.0
        with pytest.raises(DimensionMismatchError):
            make_state(big)

    def test_tolerates_tiny_defects(self):
        rho = make_state([[1.0 + 1e-12, 1e-12j], [0.0, -1e-12]])
        assert rho.dim == 2

    def test_entries_are_read_only(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 9.0

    def test_hermitian_operator_rejects(self):
        with pytest.raises(NotHermitianError):
            HermitianOperator(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("build", [DensityMatrix, HermitianOperator])
    def test_rejects_non_finite_entry(self, build, bad):
        # NaN slips past every `defect > tol` comparison, so it is refused first
        m = np.eye(2, dtype=complex) / 2.0
        m[1, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            build(m)


class TestTraceNorm:
    def test_ground_vs_maximally_mixed(self):
        # frozen: eigenvalues of |0><0| - I/2 are +1/2 and -1/2
        assert trace_norm(make_state([[1, 0], [0, 0]]).entries - maximally_mixed(2).entries) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states_at_two(self):
        a = make_state([[1, 0], [0, 0]])
        b = make_state([[0, 0], [0, 1]])
        assert trace_norm(a.entries - b.entries) == pytest.approx(2.0, abs=1e-12)

    def test_identical_states_exactly_zero(self):
        rho = make_state(helpers.ginibre_density(3, np.random.default_rng(0)))
        assert trace_norm(rho.entries - rho.entries) == 0.0

    def test_accepts_wrapper_types(self):
        rho = maximally_mixed(2)
        assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)
        assert trace_norm(HermitianOperator(rho.entries)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitianError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

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
        rho = make_state(helpers.ginibre_density(dim, rng))
        # random complete POVM: unitary conjugates of a projector resolution
        u = helpers.haar_unitary(dim, rng)
        effects = [
            HermitianOperator(u @ np.diag(row).astype(complex) @ u.conj().T)
            for row in np.eye(dim)
        ]
        total = sum(effect_probability(rho, e) for e in effects)
        assert total == pytest.approx(1.0, abs=1e-9)
