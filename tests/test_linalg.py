import math

import numpy as np
import pytest
from scipy.linalg import expm

from qtraj import (
    DensityMatrix,
    HermitianOperator,
    NumericError,
    StateVector,
    ValidationError,
    embed_at_slot,
    embed_pair,
    hermitian_eig,
    propagator,
    von_neumann_entropy,
)
from qtraj.linalg import (_hermitian_index, expm_small, hermitian_coordinates,
                          hermitian_from_coordinates, kron_power, permutation_matrix,
                          permute_slots_matrix, slot_sum)

rng = np.random.default_rng(101)


def random_hermitian(d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator((a + a.conj().T) / 2)


class TestTypes:
    def test_state_vector_norm(self):
        v = StateVector(np.array([3.0, 4.0j]))
        assert v.norm2() == pytest.approx(25.0)
        assert v.normalized().norm2() == pytest.approx(1.0, abs=1e-12)

    def test_state_vector_rejects_nan(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.nan),
                                     complex(1, np.inf)], ids=str)
    @pytest.mark.parametrize("build", [
        lambda x: StateVector(np.array([x, 1.0])),
        lambda x: HermitianOperator(np.array([[x, 0.0], [0.0, 1.0]])),
        lambda x: DensityMatrix(np.array([[x, 0.0], [0.0, 1.0]])),
    ], ids=["state", "hermitian", "density"])
    def test_non_finite_entries_rejected(self, build, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            build(bad)

    def test_hermitian_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="asymmetry|Hermitian"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_density_rejects_negative(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.0, -0.5]))

    def test_values_are_immutable(self):
        v = StateVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            v.amps[0] = 2.0


class TestHermitianEig:
    def test_identity(self):
        w, V = hermitian_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(V.conj().T @ V, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        w, V = hermitian_eig(np.diag([0.0, 1.0]))
        assert np.allclose(w, [0.0, 1.0])
        assert np.allclose(np.abs(V), np.eye(2), atol=1e-12)

    def test_reconstruction_random(self):
        A = random_hermitian(8)
        w, V = hermitian_eig(A)
        back = (V * w) @ V.conj().T
        assert np.max(np.abs(back - A.entries)) <= 1e-10
        assert np.max(np.abs(V.conj().T @ V - np.eye(8))) <= 1e-10

    def test_non_hermitian_error_names_asymmetry(self):
        with pytest.raises(ValidationError, match="max"):
            hermitian_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestPropagator:
    def test_zero_time(self):
        H = random_hermitian(4)
        assert np.allclose(propagator(H, 0.0), np.eye(4), atol=1e-14)

    def test_diagonal_phase(self):
        U = propagator(np.diag([0.0, 2.0]), 0.7, hbar=1.0)
        assert U[0, 0] == pytest.approx(1.0)
        assert U[1, 1] == pytest.approx(np.exp(-1.4j))

    def test_group_law(self):
        H = random_hermitian(6)
        U = propagator(H, 0.3) @ propagator(H, 1.1)
        assert np.max(np.abs(U - propagator(H, 1.4))) <= 1e-9

    def test_unitarity(self):
        H = random_hermitian(6)
        U = propagator(H, 2.3)
        assert np.max(np.abs(U.conj().T @ U - np.eye(6))) <= 1e-10

    def test_hbar_scaling(self):
        H = random_hermitian(3)
        assert np.allclose(propagator(H, 1.0, hbar=2.0), propagator(H, 0.5, hbar=1.0))

    def test_bad_hbar(self):
        with pytest.raises(ValidationError):
            propagator(np.eye(2), 1.0, hbar=0.0)


class TestExpmSmall:
    @pytest.mark.parametrize("D", range(2, 17))
    def test_matches_scipy_on_random_complex_matrices(self, D):
        gen = np.random.default_rng(D)
        for norm in np.logspace(-4, 1, 11):
            A = gen.standard_normal((D, D)) + 1j * gen.standard_normal((D, D))
            A *= norm / np.linalg.norm(A, 1)
            ref = expm(A)
            assert np.linalg.norm(expm_small(A) - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)

    def test_zero_and_diagonal(self):
        assert np.array_equal(expm_small(np.zeros((3, 3))), np.eye(3))
        w = np.array([-30.0, 0.5j, 2.0 - 1j])
        assert np.allclose(expm_small(np.diag(w)), np.diag(np.exp(w)), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=str)
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValidationError, match="^matrix contains non-finite entries$"):
            expm_small(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_overflow_rejected(self):
        with pytest.raises(ValidationError, match=r"^expm_small needs a finite 1-norm, got inf$"):
            expm_small(np.array([[1e308, 0.0], [1e308, 0.0]]))
        with pytest.raises(NumericError, match=r"^expm_small overflows at 1-norm 1e\+03$"):
            expm_small(np.diag([1000.0, 0.0]))


class TestEmbedding:
    def test_single_slot_is_identity_embedding(self):
        A = random_hermitian(3).entries
        assert np.allclose(embed_at_slot(A, 1, 1), A)

    def test_kronecker_order(self):
        A = np.diag([0.0, 1.0])
        assert np.allclose(embed_at_slot(A, 1, 2), np.diag([0.0, 0.0, 1.0, 1.0]))
        assert np.allclose(embed_at_slot(A, 2, 2), np.diag([0.0, 1.0, 0.0, 1.0]))

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            embed_at_slot(np.eye(2), 3, 2)

    def test_distinct_slots_commute(self):
        A = random_hermitian(2).entries
        B = random_hermitian(2).entries
        A1 = embed_at_slot(A, 1, 3)
        B3 = embed_at_slot(B, 3, 3)
        assert np.max(np.abs(A1 @ B3 - B3 @ A1)) <= 1e-12

    def test_embedding_preserves_hermiticity(self):
        A = random_hermitian(2).entries
        E = embed_at_slot(A, 2, 3)
        assert np.max(np.abs(E - E.conj().T)) <= 1e-13

    def test_pair_embedding_matches_kron_for_adjacent(self):
        W = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(embed_pair(W, 1, 2, 3, 2), np.kron(W, np.eye(2)))
        assert np.allclose(embed_pair(W, 2, 3, 3, 2), np.kron(np.eye(2), W))

    def test_slot_sum_over_slots(self):
        A = random_hermitian(2).entries
        eye = np.eye(2)
        expected = (np.kron(np.kron(A, eye), eye) + np.kron(np.kron(eye, A), eye)
                    + np.kron(np.kron(eye, eye), A))
        assert np.allclose(slot_sum(A, 3), expected, atol=1e-14)
        assert np.array_equal(slot_sum(A, 1), A)

    def test_kron_power_order(self):
        # slot 1 varies slowest: the digits of the flat index are the slots
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert kron_power(a, 1) is a
        power = kron_power(a, 3)
        for x, (i, j, k) in enumerate(np.ndindex(3, 3, 3)):
            assert power[x] == pytest.approx(a[i] * a[j] * a[k], rel=1e-14)
        V = random_hermitian(2).entries
        assert np.array_equal(kron_power(V, 3), np.kron(np.kron(V, V), V))


class TestSlotPermutation:
    def test_permute_slots_matrix_consistent(self):
        rho = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        perm = (2, 0, 1)
        P = permutation_matrix(perm, 2, 3)
        assert np.allclose(permute_slots_matrix(rho, perm, 2, 3), P @ rho @ P.conj().T)



class TestHermitianCoordinates:
    def test_index_tables_are_built_once_and_read_only(self):
        index = _hermitian_index(4)
        assert _hermitian_index(4) is index
        for arr in index:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_round_trip_is_exact(self):
        A = random_hermitian(5).entries
        assert np.array_equal(hermitian_from_coordinates(hermitian_coordinates(A)), A)


class TestEntropy:
    def test_pure_state_zero(self):
        v = StateVector(rng.standard_normal(4) + 1j * rng.standard_normal(4)).normalized()
        rho = DensityMatrix(np.outer(v.amps, v.amps.conj()))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(math.log(2), abs=1e-12)

    def test_two_level_mixture(self):
        expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
        assert von_neumann_entropy(np.diag([0.25, 0.75])) == pytest.approx(expected, abs=1e-12)

    def test_unitary_invariance(self):
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        U = propagator(random_hermitian(4), 1.3)
        assert von_neumann_entropy(U @ rho @ U.conj().T) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-9
        )

    def test_unnormalized_input_uses_trace(self):
        assert von_neumann_entropy(np.eye(3)) == pytest.approx(math.log(3), abs=1e-12)

    def test_zero_trace_rejected(self):
        with pytest.raises(ValidationError):
            von_neumann_entropy(np.zeros((2, 2)))
