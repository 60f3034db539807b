import math

import numpy as np
import pytest

from qllab.errors import QllabError, TooLargeError
from qllab.graph import rng_from
from qllab.states import (
    DensityMatrix,
    alternator,
    concurrence,
    density_from_state,
    mixture_purity,
    permutation_operator,
    symmetrizer,
    tensor_inner,
)

PHI_PLUS = np.array([1, 0, 0, 1]) / np.sqrt(2)

EXPECTED_MIXTURE = 0.25 * np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [1, 0, 0, 1],
    ],
    dtype=complex,
)


def random_state(rng, dim):
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return c / np.linalg.norm(c)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestDensityMatrix:
    def test_pure_state_basics(self):
        rho = density_from_state([1.0, 0.0])
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0)

    def test_bell_density_corners(self):
        rho = density_from_state(PHI_PLUS)
        assert rho.matrix[0, 0] == pytest.approx(0.5)
        assert rho.matrix[0, 3] == pytest.approx(0.5)
        assert rho.matrix[1, 1] == pytest.approx(0.0)

    def test_rank_one(self):
        rng = rng_from(1)
        for _ in range(5):
            rho = density_from_state(random_state(rng, 6))
            evals = np.sort(np.linalg.eigvalsh(rho.matrix))
            assert evals[-1] == pytest.approx(1.0, abs=1e-10)
            assert np.abs(evals[:-1]).max() <= 1e-10

    def test_validation(self):
        with pytest.raises(QllabError):
            density_from_state([1.0, 1.0])  # not normalized
        with pytest.raises(QllabError):
            DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
        with pytest.raises(QllabError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(QllabError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


class TestPurityAndConcurrence:
    def test_maximally_mixed(self):
        # the equal mixture of the four basis states is I/4
        assert mixture_purity(np.eye(4)) == pytest.approx(0.25)

    def test_expected_mixture_purity(self):
        # EXPECTED_MIXTURE is the equal mixture of phi_plus and psi_plus
        psi_plus = np.array([0, 1, 1, 0]) / np.sqrt(2)
        w = np.column_stack([PHI_PLUS, psi_plus])
        # oracle: direct trace of the squared matrix
        assert mixture_purity(w) == pytest.approx(
            float(np.trace(EXPECTED_MIXTURE @ EXPECTED_MIXTURE).real)
        )
        assert mixture_purity(w) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "dim, count, complex_",
        [(6, 3, True), (5, 9, True), (40, 4, False), (1, 2, False)],
        ids=["complex-few", "complex-more-than-dim", "real", "dim-1"],
    )
    def test_mixture_purity_matches_outer_product_reference(self, dim, count, complex_):
        rng = rng_from("mixture", dim, count)
        w = rng.normal(size=(dim, count))
        if complex_:
            w = w + 1j * rng.normal(size=(dim, count))
        w /= np.linalg.norm(w, axis=0)
        rho = sum(np.outer(w[:, r], w[:, r].conj()) for r in range(count)) / count
        assert abs(mixture_purity(w) - np.trace(rho @ rho).real) <= 1e-12
        assert 1.0 / min(dim, count) - 1e-12 <= mixture_purity(w) <= 1.0 + 1e-12

    def test_bell_state_concurrence_one(self):
        rho = density_from_state(PHI_PLUS)
        assert abs(concurrence(rho) - 1.0) <= 1e-9

    def test_expected_mixture_concurrence_zero(self):
        assert concurrence(DensityMatrix(EXPECTED_MIXTURE)) == 0.0

    def test_product_states_are_separable(self):
        rng = rng_from(9)
        for _ in range(5):
            a = random_state(rng, 2)
            b = random_state(rng, 2)
            rho = density_from_state(np.kron(b, a))
            assert concurrence(rho) <= 1e-10

    def test_pure_state_formula_oracle(self):
        # for pure two-qubit states concurrence = 2 |c1 c4 - c2 c3|
        rng = rng_from(11)
        for _ in range(10):
            c = random_state(rng, 4)
            expected = 2 * abs(c[0] * c[3] - c[1] * c[2])
            got = concurrence(density_from_state(c))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_local_unitary_invariance(self):
        rng = rng_from(13)
        c = random_state(rng, 4)
        rho = density_from_state(c)
        base = concurrence(rho)
        for _ in range(8):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = DensityMatrix(u @ rho.matrix @ u.T.conj())
            assert concurrence(rotated) == pytest.approx(base, abs=1e-8)

    def test_dimension_guard(self):
        with pytest.raises(QllabError):
            concurrence(DensityMatrix(np.eye(2) / 2))


class TestTensorInner:
    def test_orthogonal_factors(self):
        assert tensor_inner([1, 0], [1, 0], [0, 1], [1, 0]) == 0

    def test_unit_vectors(self):
        assert tensor_inner([1, 0], [0, 1], [1, 0], [0, 1]) == 1

    def test_distance_identity(self):
        # ||u x x - v x y||^2 = 2 - 2 Re <u,v><x,y> for unit vectors
        rng = rng_from(21)
        for _ in range(10):
            u, v = random_state(rng, 3), random_state(rng, 3)
            x, y = random_state(rng, 4), random_state(rng, 4)
            lhs = np.linalg.norm(np.kron(u, x) - np.kron(v, y)) ** 2
            rhs = 2 - 2 * (tensor_inner(u, x, v, y)).real
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_dimension_guard(self):
        with pytest.raises(QllabError):
            tensor_inner([1, 0], [1], [1, 0, 0], [1])


class TestPermutationOperators:
    def test_matrices_are_permutations(self):
        p = permutation_operator((1, 2, 0))
        assert p.shape == (8, 8)
        assert np.array_equal(p @ p.T, np.eye(8))
        assert set(np.unique(p)) == {0.0, 1.0}

    def test_composition_law(self):
        rng = rng_from(31)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            sigma = tuple(rng.permutation(n))
            tau = tuple(rng.permutation(n))
            composed = tuple(sigma[tau[i]] for i in range(n))
            lhs = permutation_operator(sigma) @ permutation_operator(tau)
            rhs = permutation_operator(composed)
            assert np.array_equal(lhs, rhs)

    def test_swap_action_on_basis(self):
        # |12>: factor 1 in level 1, factor 2 in level 2 -> index 2
        swap = permutation_operator((1, 0))
        e12 = np.zeros(4)
        e12[2] = 1.0
        out = swap @ e12
        assert out[1] == 1.0  # |21>

    def test_invalid_permutation(self):
        with pytest.raises(QllabError):
            permutation_operator((0, 0))


class TestSymmetrizerAlternator:
    def test_two_factor_actions(self):
        s2, a2 = symmetrizer(2), alternator(2)
        e12 = np.zeros(4)
        e12[2] = 1.0
        e21 = np.zeros(4)
        e21[1] = 1.0
        assert np.allclose(s2 @ e12, 0.5 * (e12 + e21))
        assert np.allclose(a2 @ e12, 0.5 * (e12 - e21))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_idempotent(self, n):
        s, a = symmetrizer(n), alternator(n)
        assert np.abs(s @ s - s).max() <= 1e-12
        assert np.abs(a @ a - a).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_mutually_annihilating(self, n):
        # n = 1 is excluded: there S and A are both the identity
        s, a = symmetrizer(n), alternator(n)
        assert np.abs(s @ a).max() <= 1e-12
        assert np.abs(a @ s).max() <= 1e-12

    @pytest.mark.parametrize("n,rank", [(2, 1), (3, 0), (4, 0)])
    def test_alternator_rank_over_two_level_space(self, n, rank):
        a = alternator(n)
        evals = np.linalg.eigvalsh(a)
        assert int((evals > 0.5).sum()) == rank

    def test_symmetric_subspace_dimension(self):
        # dim S^n(V) = n + 1 for dim V = 2
        for n in (2, 3, 4):
            s = symmetrizer(n)
            evals = np.linalg.eigvalsh(s)
            assert int((evals > 0.5).sum()) == n + 1

    def test_basis_count_by_level_occupation(self):
        from qllab.qlproduct import bit_values

        for n in (2, 3, 5):
            by_p = {}
            for k in range(2**n):
                p = sum(v == 2 for v in bit_values(k, n))
                by_p[p] = by_p.get(p, 0) + 1
            assert by_p == {p: math.comb(n, p) for p in range(n + 1)}
            assert sum(by_p.values()) == 2**n

    def test_size_guard(self):
        with pytest.raises(TooLargeError):
            symmetrizer(9)
