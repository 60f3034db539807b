import numpy as np
import pytest

from qllab.errors import QllabError
from qllab.graph import rng_from
from qllab.states import DensityMatrix, concurrence, density_from_state, mixture_purity

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
