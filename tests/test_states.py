import numpy as np
import pytest

from qllab.errors import QllabError
from qllab.graph import rng_from
from qllab.states import concurrence, mixture_purity

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
        assert abs(concurrence(PHI_PLUS) - 1.0) <= 1e-12

    def test_product_states_are_separable(self):
        rng = rng_from(9)
        for _ in range(5):
            a = random_state(rng, 2)
            b = random_state(rng, 2)
            assert concurrence(np.kron(b, a)) <= 1e-12

    def test_pure_state_formula_oracle(self):
        # the 2 x 2 coefficient matrix has singular values s1, s2 with
        # s1^2 + s2^2 = 1, and the concurrence of a pure state is 2 s1 s2
        rng = rng_from(11)
        for _ in range(10):
            c = random_state(rng, 4)
            s1, s2 = np.linalg.svd(c.reshape(2, 2), compute_uv=False)
            assert abs(concurrence(c) - 2 * s1 * s2) <= 1e-12

    def test_local_unitary_invariance(self):
        rng = rng_from(13)
        c = random_state(rng, 4)
        base = concurrence(c)
        for _ in range(8):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            assert concurrence(u @ c) == pytest.approx(base, abs=1e-12)

    def test_dimension_guard(self):
        # two or eight coefficients, a matrix, and four that are not unit
        for c in ([1.0, 0.0], np.eye(4) / 2, np.ones(8) / np.sqrt(8), [1.0, 1.0, 0.0, 0.0]):
            with pytest.raises(QllabError):
                concurrence(c)
