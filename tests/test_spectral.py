import numpy as np
import pytest

from qllab.errors import NotRegularError, QllabError
from qllab.graph import (
    BiasedGraph,
    add_diagonal_disorder,
    disjoint_union,
    gen_bipartite_d_regular,
    gen_complete,
    gen_cycle,
    gen_d_regular_random,
    rng_from,
)
from qllab.qlbit import CrossRegular, qlbit_spec
from qllab.qlproduct import ProductSpec, build_contracted_product
from qllab.spectral import (
    EnsembleSpectrum,
    eigendecompose,
    emergent_state,
    ensemble_spectrum,
    ramanujan_check,
    spectral_gap,
)


def random_biased_graph(n, p, seed, disorder=0.0):
    """Random graph with random unit-modulus complex biases."""
    rng = rng_from(seed, "random_biased")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, np.exp(1j * rng.uniform(0, 2 * np.pi))))
    diag = rng.normal(0, disorder, n) if disorder else None
    return BiasedGraph.from_edges(n, edges, diagonal=diag)


class TestEigendecompose:
    def test_k2(self):
        eig = eigendecompose(gen_complete(2)).eigenvalues
        assert np.allclose(eig, [1, -1], atol=1e-12)

    def test_c5_closed_form(self):
        eig = eigendecompose(gen_cycle(5)).eigenvalues
        exact = np.sort([2 * np.cos(2 * np.pi * k / 5) for k in range(5)])[::-1]
        assert np.allclose(eig, exact, atol=1e-9)

    def test_regular_perron_vector_uniform(self):
        g = gen_d_regular_random(40, 6, seed=2)
        spec = eigendecompose(g)
        assert abs(spec.eigenvalues[0] - 6) <= 1e-9
        assert np.allclose(np.abs(spec.eigenvectors[:, 0]), 1 / np.sqrt(40), atol=1e-8)

    def test_residuals_and_orthonormality(self):
        g = random_biased_graph(25, 0.3, seed=1, disorder=1.0)
        spec = eigendecompose(g)
        a = g.adjacency()
        norm = np.abs(spec.eigenvalues).max()
        res = np.linalg.norm(a @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues, axis=0)
        assert res.max() <= 1e-8 * max(1.0, norm)
        gram = spec.eigenvectors.T.conj() @ spec.eigenvectors
        assert np.abs(gram - np.eye(25)).max() <= 1e-8

    def test_agrees_with_generic_eigensolver(self):
        for seed in range(20):
            g = random_biased_graph(12, 0.4, seed=seed, disorder=0.5)
            ours = eigendecompose(g).eigenvalues
            generic = np.sort(np.linalg.eig(g.adjacency())[0].real)[::-1]
            assert np.allclose(ours, generic, atol=1e-8)

    def test_permutation_invariance(self):
        g = random_biased_graph(15, 0.35, seed=4)
        base = eigendecompose(g).eigenvalues
        rng = rng_from(99)
        for _ in range(5):
            perm = rng.permutation(g.n)
            edges = [(perm[u], perm[v], b) for (u, v), b in g.edges.items()]
            permuted = BiasedGraph.from_edges(g.n, edges)
            assert np.allclose(eigendecompose(permuted).eigenvalues, base, atol=1e-9)

    def test_trace_identity(self):
        g = add_diagonal_disorder(gen_d_regular_random(30, 4, seed=7), 2.0, seed=8)
        spec = eigendecompose(g)
        assert abs(spec.eigenvalues.sum() - g.diagonal.sum()) <= 1e-8


class TestSpectralGap:
    def test_c5(self):
        gap = spectral_gap(eigendecompose(gen_cycle(5)))
        assert abs(gap - (2 - 2 * np.cos(2 * np.pi / 5))) <= 1e-9

    def test_k4(self):
        assert spectral_gap(eigendecompose(gen_complete(4))) == pytest.approx(4.0)

    def test_disjoint_copies_have_zero_gap(self):
        g = disjoint_union(gen_complete(4), gen_complete(4))
        assert spectral_gap(eigendecompose(g)) == pytest.approx(0.0, abs=1e-12)


class TestRamanujan:
    def test_k4(self):
        report = ramanujan_check(gen_complete(4), 3)
        assert report.max_nontrivial == pytest.approx(1.0)
        assert report.is_ramanujan

    def test_cycles_sit_at_the_boundary(self):
        for n in (10, 50, 200):
            report = ramanujan_check(gen_cycle(n), 2)
            assert report.is_ramanujan
            assert report.max_nontrivial <= 2.0

    def test_bipartite_flag_excludes_mirror_eigenvalue(self):
        g = gen_bipartite_d_regular(4, 4, seed=0)  # K_{4,4}
        assert not ramanujan_check(g, 4, bipartite=False).is_ramanujan
        assert ramanujan_check(g, 4, bipartite=True).is_ramanujan

    def test_not_regular_error(self):
        path = BiasedGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(NotRegularError):
            ramanujan_check(path, 2)

    def test_ensemble_fraction_reported(self):
        # statistic only: some d=8 graphs on n=60 pass the strict bound
        hits = 0
        for seed in range(20):
            report = ramanujan_check(gen_d_regular_random(60, 8, seed=seed), 8)
            hits += report.is_ramanujan
            assert report.max_nontrivial <= report.bound + 0.6
        assert 0 <= hits <= 20


class TestEmergentState:
    def test_highest_policy(self):
        g = gen_d_regular_random(30, 5, seed=3)
        state = emergent_state(eigendecompose(g))
        assert state.eigenvalue == pytest.approx(5.0, abs=1e-9)
        assert np.allclose(np.abs(state.eigenvector), 1 / np.sqrt(30), atol=1e-7)
        assert not state.degenerate

    def test_highest_magnitude_prefers_extreme(self):
        minus_k4 = BiasedGraph.from_edges(
            4, [(u, v, -1.0) for u in range(4) for v in range(u + 1, 4)]
        )
        state = emergent_state(eigendecompose(minus_k4), policy="highest_magnitude")
        assert state.eigenvalue == pytest.approx(-3.0)

    def test_tie_breaks_positive(self):
        state = emergent_state(eigendecompose(gen_complete(2)), policy="highest_magnitude")
        assert state.eigenvalue == pytest.approx(1.0)

    def test_empty_graph_flagged_degenerate(self):
        g = BiasedGraph(n=3)
        state = emergent_state(eigendecompose(g))
        assert state.eigenvalue == 0.0
        assert state.degenerate

    def test_unknown_policy(self):
        with pytest.raises(QllabError):
            emergent_state(eigendecompose(gen_cycle(4)), policy="median")


class TestEnsembleSpectrum:
    def test_single_realization_matches_exact_histogram(self):
        g = gen_cycle(8)
        ens = ensemble_spectrum(lambda i: g, realizations=1, bins=10)
        exact, _ = np.histogram(eigendecompose(g).eigenvalues, bins=ens.bin_edges)
        assert np.array_equal(ens.counts, exact)
        assert ens.total == 8

    def test_total_count_invariant(self):
        def make(i):
            return gen_d_regular_random(20, 3, seed=(3, i))

        ens = ensemble_spectrum(make, realizations=7, bins=15)
        assert ens.total == 7 * 20

    def test_accepts_solved_spectra(self):
        graphs = [gen_d_regular_random(12, 3, seed=(4, i)) for i in range(3)]
        spectra = [eigendecompose(g) for g in graphs]
        a = ensemble_spectrum(lambda i: graphs[i], 3, 9)
        b = ensemble_spectrum(lambda i: spectra[i], 3, 9)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.bin_edges, b.bin_edges)

    def test_deterministic_under_master_seed(self):
        def make(i):
            return add_diagonal_disorder(
                gen_d_regular_random(16, 4, seed=(5, i)), 1.0, seed=(6, i)
            )

        a = ensemble_spectrum(make, 5, 12)
        b = ensemble_spectrum(make, 5, 12)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.bin_edges, b.bin_edges)

    def test_csv_round_trip(self, tmp_path):
        ens = EnsembleSpectrum(
            bin_edges=np.array([0.0, 1.0, 2.0]),
            counts=np.array([3, 4]),
            realizations=1,
        )
        path = tmp_path / "h.csv"
        ens.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert lines[1] == "0,1,3"

    def test_two_bit_product_shows_four_emergent_clusters(self):
        # emergent eigenvalues sit at d +- k(+-1 +-1): 22, 16 (x2), 10
        def make(i):
            bits = tuple(
                qlbit_spec(24, 16, policy=CrossRegular(3), connect_bias=1.0, seed=(i, t))
                for t in range(2)
            )
            spec = ProductSpec(qlbits=bits, mode="contracted", n=24, d=16, seed=i)
            return build_contracted_product(spec)

        reals = 12
        # grid chosen so the exact cluster values fall inside bins, not on
        # edges; clipped bulk lands in the first bin away from the clusters
        ens = ensemble_spectrum(make, reals, bins=14, value_range=(8.75, 22.75))
        centers = 0.5 * (ens.bin_edges[:-1] + ens.bin_edges[1:])

        def count_near(x):
            return int(ens.counts[np.argmin(np.abs(centers - x))])

        assert count_near(22.0) == reals
        assert count_near(16.0) == 2 * reals
        assert count_near(10.0) == reals

    def test_disordered_ensemble_peak_near_average_degree(self):
        from qllab.graph import delete_random_edges

        def make(i):
            g = gen_d_regular_random(100, 12, seed=(7, i))
            return delete_random_edges(g, 0.5, seed=(8, i))

        tops = [eigendecompose(make(i)).eigenvalues[0] for i in range(10)]
        d_prime = 6.0
        assert abs(np.mean(tops) - d_prime) <= 1.0
