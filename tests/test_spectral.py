import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qllab.spectral
from qllab.errors import NumericalError, QllabError
from qllab.graph import (
    BiasedGraph,
    add_diagonal_disorder,
    block_basis,
    delete_random_edges,
    disjoint_union,
    gen_complete,
    gen_cycle,
    gen_d_regular_random,
    rng_from,
)
from qllab.qlbit import CrossRegular, EdgeBudgetFraction, PairProbability, QLBitSpec, build_qlbit
from qllab.qlproduct import ProductSpec, build_contracted_product
from qllab.spectral import (
    Spectrum,
    eigendecompose,
    eigenvalues,
    emergent_state,
    ensemble_spectrum,
    fixed_phase,
    quotient,
    top_pair,
)
from qllab.witness import attach_witness


def random_biased_graph(n, p, seed, disorder=0.0):
    """Random graph with random unit-modulus complex biases."""
    rng = rng_from(seed, "random_biased")
    pairs, bias = [], []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                pairs.append((u, v))
                bias.append(np.exp(1j * rng.uniform(0, 2 * np.pi)))
    diag = rng.normal(0, disorder, n) if disorder else None
    return BiasedGraph.from_edges(n, pairs, bias, diagonal=diag)


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
            permuted = BiasedGraph.from_edges(g.n, perm[g.edges], g.bias)
            assert np.allclose(eigendecompose(permuted).eigenvalues, base, atol=1e-9)

    def test_each_pair_meets_its_own_residual_bound(self, monkeypatch):
        # a near-zero pair of a 6-regular graph moved by 3e-8 is within
        # 1e-8 * max |lambda| = 6e-8, but not within its own 1e-8 * max(1, |lambda|)
        g = gen_d_regular_random(40, 6, seed=2)
        solver = np.linalg.eigh

        def moved(a):
            vals, vecs = solver(a)
            k = np.argmin(np.abs(vals))
            assert abs(vals[k]) < 1 and vals.max() == pytest.approx(6)
            vals = vals.copy()
            vals[k] += 3e-8
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", moved)
        with pytest.raises(NumericalError, match="eigenpair .* residual 3.000e-08"):
            eigendecompose(g)

    def test_spectrum_checks_its_pairs_on_construction(self):
        vals = np.array([6.0, 0.5])
        Spectrum(eigenvalues=vals, eigenvectors=np.eye(2), residuals=np.array([6e-8, 1e-8]))
        with pytest.raises(NumericalError, match="eigenpair 1 residual"):
            Spectrum(eigenvalues=vals, eigenvectors=np.eye(2), residuals=np.array([0.0, 1.1e-8]))

    def test_trace_identity(self):
        g = add_diagonal_disorder(gen_d_regular_random(30, 4, seed=7), 2.0, seed=8)
        spec = eigendecompose(g)
        assert abs(spec.eigenvalues.sum() - g.diagonal.sum()) <= 1e-8


class TestEigenvalues:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 40),
        st.floats(0.05, 0.9),
        st.integers(0, 2**32),
        st.sampled_from(["real", "complex", "disordered"]),
    )
    def test_match_the_full_solve(self, n, p, seed, kind):
        if kind == "real":
            g = random_biased_graph(n, p, seed)
            g = BiasedGraph.from_edges(n, g.edges, np.sign(g.bias.real) + (g.bias.real == 0))
        else:
            g = random_biased_graph(n, p, seed, disorder=1.5 if kind == "disordered" else 0.0)
        values = eigenvalues(g)
        full = eigendecompose(g).eigenvalues
        assert values.shape == (n,)
        assert np.all(np.diff(values) <= 0)
        assert np.all(np.abs(values - full) <= 1e-12 * np.maximum(1.0, np.abs(full)))

    def test_empty_vertex_set(self):
        with pytest.raises(QllabError):
            eigenvalues(BiasedGraph(n=0))

    @pytest.mark.parametrize("pair", [False, True], ids=["one-value", "trace-preserving-pair"])
    def test_wrong_eigenvalue_raises(self, monkeypatch, pair):
        # C8 has the eigenvalue 0: moving it by delta breaks only the trace
        # identity, and moving the two extremes by +delta and -delta keeps
        # the trace and breaks only the square-sum identity
        g = gen_cycle(8)
        delta = 1e-7 * 2.0  # 1e-7 * ||A||
        solver = np.linalg.eigvalsh

        def shifted(a):
            vals = solver(a).copy()
            if pair:
                vals[-1] += delta
                vals[0] -= delta
            else:
                vals[np.argmin(np.abs(vals))] += delta
            return vals

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
        with pytest.raises(NumericalError):
            eigenvalues(g)

    def test_a_wrong_dense_operand_fails_the_identities(self, monkeypatch):
        # the solver reads a dense matrix that lacks one edge; the identities
        # come from the edge arrays, so its spectrum cannot vouch for itself
        adjacency = BiasedGraph.adjacency

        def dropping(self, out=None):
            return adjacency(replace(self, edges=self.edges[1:], bias=self.bias[1:]), out=out)

        monkeypatch.setattr(BiasedGraph, "adjacency", dropping)
        with pytest.raises(NumericalError, match="square-sum"):
            eigenvalues(gen_d_regular_random(40, 6, seed=1))

    def test_solver_failure_is_numerical_error(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(NumericalError):
            eigenvalues(gen_cycle(6))


def top_space_weight(g, x):
    """||P x||^2 for P the projector onto the eigenvalues in the top window."""
    spec = eigendecompose(g)
    vals = spec.eigenvalues
    top = spec.eigenvectors[:, vals >= vals[0] - spec.degeneracy_window()]
    return float(np.linalg.norm(top.conj().T @ x) ** 2)


class TestTopPair:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40),
        st.floats(0.05, 0.9),
        st.integers(0, 2**32),
        st.sampled_from(["real", "complex", "disordered", "disconnected"]),
    )
    def test_matches_the_full_solve(self, n, p, seed, kind):
        if kind == "real":
            g = random_biased_graph(n, p, seed)
            g = BiasedGraph.from_edges(n, g.edges, np.sign(g.bias.real) + (g.bias.real == 0))
        elif kind == "disconnected":
            g = disjoint_union(random_biased_graph(n, p, seed), random_biased_graph(n, p, seed + 1))
        else:
            g = random_biased_graph(n, p, seed, disorder=1.5 if kind == "disordered" else 0.0)
        value, x = top_pair(g)
        top = eigendecompose(g).eigenvalues[0]
        assert abs(value - top) <= 1e-12 * max(1.0, abs(top))
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        assert np.sqrt(top_space_weight(g, x)) >= 1.0 - 1e-10

    @pytest.mark.parametrize(
        "g",
        [
            BiasedGraph.from_edges(4, gen_complete(4).edges, -np.ones(6)),
            BiasedGraph.from_edges(2, [(0, 1)], [-1.0]),
        ],
        ids=["minus-k4", "minus-edge"],
    )
    def test_start_orthogonal_to_the_top_falls_back(self, monkeypatch, g):
        # 1/sqrt(n) is an eigenvector of the lowest level here, so Lanczos
        # stops at once with a Ritz pair of zero residual that is not the top
        full = []

        def counting(h):
            full.append(h.n)
            return eigendecompose(h)

        monkeypatch.setattr(qllab.spectral, "eigendecompose", counting)
        value, x = top_pair(g)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert top_space_weight(g, x) == pytest.approx(1.0, abs=1e-12)
        assert full == [g.n]

    def test_inaccurate_pair_falls_back(self, monkeypatch):
        # a Ritz vector 1e-5 off the top has its Rayleigh quotient within
        # 1e-8 of the top, so only the residual gate can reject it
        g = random_biased_graph(40, 0.3, seed=3, disorder=1.0)
        exact = eigendecompose(g)
        x = exact.eigenvectors[:, 0] + 1e-5 * exact.eigenvectors[:, 1]
        x /= np.linalg.norm(x)
        a = g.adjacency()
        rayleigh = float(np.vdot(x, a @ x).real)
        assert exact.eigenvalues[0] - rayleigh <= 1e-8
        monkeypatch.setattr(qllab.spectral, "_lanczos_top", lambda a: x)
        value, top = top_pair(g)
        assert value == exact.eigenvalues[0]
        assert np.array_equal(top, exact.eigenvectors[:, 0])

    def test_tied_top_returns_the_projection_of_the_uniform_start(self, monkeypatch):
        monkeypatch.setattr(qllab.spectral, "eigendecompose", None)  # no fallback
        g = disjoint_union(gen_d_regular_random(20, 4, seed=1), gen_d_regular_random(20, 4, seed=1))
        value, x = top_pair(g)
        assert value == pytest.approx(4.0, abs=1e-12)
        assert np.allclose(x, 1 / np.sqrt(40), atol=1e-14)

    def test_regular_graph_solves_in_one_step(self, monkeypatch):
        steps = []
        eigh = np.linalg.eigh

        def counting(t):
            steps.append(len(t))
            return eigh(t)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        value, x = top_pair(gen_d_regular_random(40, 6, seed=2))
        assert steps == [1]
        assert value == pytest.approx(6.0, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 40),
        st.floats(0.05, 0.9),
        st.integers(0, 2**32),
        st.sampled_from(["nonnegative", "signed", "complex", "disconnected", "disordered"]),
    )
    def test_gershgorin_certificate_bounds_the_top(self, n, p, seed, kind):
        g = random_biased_graph(n, p, seed, disorder=1.5 if kind == "disordered" else 0.0)
        rng = rng_from(seed, "weights")
        if kind == "nonnegative":
            g = BiasedGraph.from_edges(n, g.edges, rng.uniform(0.1, 2.0, g.num_edges))
        elif kind == "signed":
            g = BiasedGraph.from_edges(n, g.edges, np.sign(g.bias.real) + (g.bias.real == 0))
        elif kind == "disconnected":
            g = disjoint_union(g, random_biased_graph(n, p, seed + 1))
        a = g.adjacency()
        top = np.linalg.eigvalsh(a)[-1]
        x = qllab.spectral._lanczos_top(g)
        theta = float(np.vdot(x, a @ x).real)
        tau = 1e-8 * max(1.0, abs(theta))
        bound = qllab.spectral._scaled_gershgorin(g, x)
        if bound <= theta + tau:  # the certificate accepts
            assert top <= theta + tau
        # every positive scaling is a similarity, so any vector's bound holds
        for scales in (x, rng.standard_normal(g.n), np.ones(g.n)):
            bound = qllab.spectral._scaled_gershgorin(g, scales)
            assert top <= bound + 1e-12 * max(1.0, abs(bound))

    def test_signed_graph_proves_its_pair_by_cholesky(self, monkeypatch):
        # the `minus` witness graph: an inverted bit coupled to a witness
        # bit; signed, so no diagonal scaling reaches its top eigenvalue
        bit = QLBitSpec(30, 6, policy=CrossRegular(1), seed=4)
        spec = ProductSpec(qlbits=(replace(bit, connect_bias=-1.0), bit), mode="contracted", seed=4)
        g = attach_witness(spec, 0, 0.25, seed=4)
        a = g.adjacency()
        x = qllab.spectral._lanczos_top(g)
        theta = float(np.vdot(x, g.operator()(x)).real)  # top_pair's Rayleigh quotient
        assert qllab.spectral._scaled_gershgorin(g, x) > theta + 1e-8 * theta
        proofs = []
        all_below = qllab.spectral._all_below

        def counting(a, bound):
            proofs.append(all_below(a, bound))
            return proofs[-1]

        monkeypatch.setattr(qllab.spectral, "_all_below", counting)
        monkeypatch.setattr(qllab.spectral, "eigendecompose", None)  # no fallback
        value, top = top_pair(g)
        assert proofs == [True]
        assert value == theta and np.array_equal(top, x)
        assert value == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-12)

    @pytest.mark.parametrize("retention", [1.0, 0.7, 0.4])
    def test_sweep_sized_graphs_need_no_full_solve(self, monkeypatch, retention):
        # the `ensemble` workload's disorder-sweep graphs: n 256, d 6
        full = []

        def counting(h):
            full.append(h.n)
            return eigendecompose(h)

        monkeypatch.setattr(qllab.spectral, "eigendecompose", counting)
        for seed in range(6):
            g = gen_d_regular_random(256, 6, seed)
            g = delete_random_edges(g, 1.0 - retention, seed)
            value, x = top_pair(g)
            top = np.linalg.eigvalsh(g.adjacency())[-1]
            assert abs(value - top) <= 1e-12 * max(1.0, abs(top))
        assert full == []

    def test_large_sparse_graph_forms_no_n_by_n_array(self, monkeypatch):
        # one dense 4096 x 4096 float64 array takes 134 MB
        n = 4096
        g = delete_random_edges(gen_d_regular_random(n, 6, seed=1), 0.3, seed=1)
        monkeypatch.setattr(qllab.spectral, "eigendecompose", None)  # no fallback
        tracemalloc.start()
        try:
            value, x = top_pair(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 8
        assert np.linalg.norm(g.operator()(x) - value * x) <= 1e-8 * value

    def test_single_vertex(self):
        value, x = top_pair(BiasedGraph.from_edges(1, np.empty((0, 2), int), diagonal=[2.5]))
        assert value == 2.5 and x.tolist() == [1.0]

    def test_empty_vertex_set(self):
        with pytest.raises(QllabError):
            top_pair(BiasedGraph(n=0))


def signed_witness_graph():
    """The `minus` witness graph: an inverted bit coupled to a witness bit;
    signed, so no diagonal scaling reaches its top eigenvalue."""
    bit = QLBitSpec(30, 6, policy=CrossRegular(1), seed=4)
    spec = ProductSpec(qlbits=(replace(bit, connect_bias=-1.0), bit), mode="contracted", seed=4)
    return attach_witness(spec, 0, 0.25, seed=4)


def same_size_sequences(g):
    """Pairs of same-size graphs solved one after the other: a denser then a
    sparser edge set, complex then real biases, a disordered then a clean
    diagonal."""
    phases = np.exp(1j * rng_from(5, "phases").uniform(0.0, 2.0 * np.pi, g.num_edges))
    return {
        "denser-sparser": (g, delete_random_edges(g, 0.3, seed=1)),
        "complex-real": (replace(g, bias=g.bias * phases), g),
        "disordered-clean": (add_diagonal_disorder(g, 1.0, seed=1), g),
    }


def assert_no_shared_memory(*arrays):
    for a in arrays:
        assert not np.shares_memory(a, qllab.spectral._operand)


class TestKeptOperand:
    """The full solves and `top_pair`'s Cholesky proof write each graph into
    one kept n x n array; every result must equal a solve on a fresh
    `g.adjacency()`."""

    @pytest.mark.parametrize("sequence", ["denser-sparser", "complex-real", "disordered-clean"])
    def test_same_size_full_solves_match_fresh_solves(self, sequence):
        for g in same_size_sequences(random_biased_graph(60, 0.3, seed=3))[sequence]:
            values, spectrum = eigenvalues(g), eigendecompose(g)
            fresh = g.adjacency()
            vals, vecs = np.linalg.eigh(fresh)
            assert np.array_equal(values, np.linalg.eigvalsh(fresh)[::-1])
            assert np.array_equal(spectrum.eigenvalues, vals[::-1])
            assert np.array_equal(spectrum.eigenvectors, vecs[:, ::-1])
            assert_no_shared_memory(values, spectrum.eigenvalues, spectrum.eigenvectors, spectrum.residuals)

    @pytest.mark.parametrize("sequence", ["denser-sparser", "complex-real", "disordered-clean"])
    def test_same_size_cholesky_proofs_match_fresh_proofs(self, monkeypatch, sequence):
        first, second = same_size_sequences(signed_witness_graph())[sequence]
        monkeypatch.setattr(qllab.spectral, "eigendecompose", None)  # no fallback
        bounds = []
        for g in (first, second):
            x = qllab.spectral._lanczos_top(g)
            theta = float(np.vdot(x, g.operator()(x)).real)
            bound = theta + 1e-8 * max(1.0, abs(theta))
            # only the Cholesky proof on g's own matrix proves this pair
            assert qllab.spectral._scaled_gershgorin(g, x) > bound
            assert qllab.spectral._all_below(g.adjacency(), bound)
            value, top = top_pair(g)
            assert value == theta and np.array_equal(top, x)
            assert_no_shared_memory(top)
            bounds.append(bound)
        if sequence != "complex-real":
            # the first matrix, left in the operand, would fail the second proof
            assert not qllab.spectral._all_below(first.adjacency(), bounds[1])

    def test_a_second_same_size_solve_allocates_no_n_by_n_array(self, monkeypatch):
        n = 200
        monkeypatch.setattr(qllab.spectral, "_operand", None)
        peaks = []
        for seed in (1, 2):
            g = add_diagonal_disorder(gen_d_regular_random(n, 6, seed), 0.2, seed)
            tracemalloc.start()
            try:
                eigenvalues(g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] >= n * n * 8  # the operand itself, made once
        assert peaks[1] < n * n * 8 / 8

    def test_another_shape_replaces_the_operand(self):
        eigenvalues(gen_cycle(7))
        assert qllab.spectral._operand.shape == (7, 7) and qllab.spectral._operand.dtype == float
        eigenvalues(random_biased_graph(9, 0.5, seed=1))
        assert qllab.spectral._operand.shape == (9, 9) and qllab.spectral._operand.dtype == complex


def labeled(g, *sizes):
    """g with its vertices split into consecutive blocks of these sizes."""
    names = tuple(f"b{k}" for k in range(len(sizes)))
    return replace(g, blocks=names, block_of=np.repeat(np.arange(len(sizes)), sizes))


class TestEmergentState:
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(3, 12),
        st.integers(2, 5),
        st.sampled_from(["budget", "pair_probability", "cross_regular"]),
        st.floats(0.05, 0.6),
        st.integers(0, 3),
        st.sampled_from([1.0, -1.0]),
        st.sampled_from([1.0, -1.0]),
        st.sampled_from([1.0, -1.0, 1j, 0.0]),
        st.integers(0, 2**32),
    )
    def test_matches_the_full_solve_on_dense_path_bits(self, half, d, kind, x, degree, red, blue, conn, seed):
        # every bit kind `qlbit` reads, against the dense eigensystem: budget
        # and pair-probability policies, whose block partitions are not
        # equitable unless unconnected, and cross-regular ones, which are
        if kind == "cross_regular":
            policy = CrossRegular(degree)
        else:
            policy = EdgeBudgetFraction(x) if kind == "budget" else PairProbability(x)
        g = build_qlbit(QLBitSpec(2 * half, d, policy, conn, red, blue, seed))
        level = emergent_state(g)
        spec = eigendecompose(g)
        vals = spec.eigenvalues
        nearest = int(np.argmin(np.abs(vals - level.eigenvalue)))
        assert abs(level.eigenvalue - vals[nearest]) <= 1e-10 * max(1.0, abs(vals[nearest]))
        if not quotient(g).equitable:
            i = qllab.spectral._extreme_index(vals)
            assert abs(level.eigenvalue - vals[i]) <= 1e-12 * max(1.0, abs(vals[i]))
        window = np.abs(vals - level.eigenvalue) <= spec.degeneracy_window()
        assert level.degenerate == (window.sum() > 1)
        c = level.state.coefficients
        assert abs(np.vdot(c, c).real + level.state.residual**2 - 1) <= 1e-12
        # J^H v for a level of one value, up to phase; in J^H of the level
        # (each member equally valid) for a tied one
        jv = block_basis(g, g.blocks).T @ spec.eigenvectors[:, window]
        if window.sum() == 1:
            overlap = np.vdot(jv[:, 0], c)
            phase = overlap / abs(overlap) if overlap else 1.0
            assert np.abs(c - phase * jv[:, 0]).max() <= 1e-8
        else:
            u, sigma, _ = np.linalg.svd(jv)
            span = u[:, sigma > 1e-9]
            assert np.linalg.norm(c - span @ (span.conj().T @ c)) <= 1e-8

    def test_highest_policy(self):
        g = labeled(gen_d_regular_random(30, 5, seed=3), 15, 15)
        state = emergent_state(g)
        assert state.eigenvalue == pytest.approx(5.0, abs=1e-9)
        # the uniform Perron vector: in span(J), equally on both halves
        assert np.allclose(state.state.coefficients, 1 / np.sqrt(2), atol=1e-7)
        assert state.state.residual <= 1e-7
        assert not state.degenerate

    def test_highest_magnitude_prefers_extreme(self):
        k4 = gen_complete(4)
        minus_k4 = BiasedGraph.from_edges(4, k4.edges, -k4.bias)
        state = emergent_state(labeled(minus_k4, 2, 2))  # levels -3 and 1
        assert state.eigenvalue == pytest.approx(-3.0)

    def test_tie_breaks_positive(self):
        state = emergent_state(labeled(gen_complete(2), 1, 1))  # levels 1 and -1
        assert state.eigenvalue == pytest.approx(1.0)

    def test_empty_graph_flagged_degenerate(self):
        state = emergent_state(labeled(BiasedGraph(n=3), 3))
        assert state.eigenvalue == 0.0
        assert state.degenerate

    def test_a_tied_bottom_level_gives_one_fixed_member(self):
        # top_pair's member of the top level of -g, which is g's bottom: the
        # projection of 1/sqrt(n) onto it
        k4 = gen_complete(4)
        minus_k4 = BiasedGraph.from_edges(4, k4.edges, -k4.bias)
        two = disjoint_union(minus_k4, minus_k4)
        spec = eigendecompose(two)
        _, x = top_pair(replace(two, bias=-two.bias))
        level = spec.eigenvectors[:, np.abs(spec.eigenvalues + 3.0) <= 1e-9]
        member = level @ (level.T @ np.full(8, 1 / np.sqrt(8)))
        member /= np.linalg.norm(member)
        assert abs(np.vdot(member, x)) >= 1 - 1e-12
        # the reader reads that member on a partition that is not equitable
        g = labeled(two, 3, 5)
        assert not quotient(g).equitable
        state = emergent_state(g)
        assert state.eigenvalue == pytest.approx(-3.0)
        assert state.degenerate
        assert np.array_equal(state.state.coefficients, block_basis(g, g.blocks).T @ x)

    def test_window_scales_by_the_largest_magnitude(self):
        # a bottom of -100 sets the window, 1e-4, not the top's max(1, 1)
        vals = np.array([1.0, -100.0 + 5e-5, -100.0])
        spec = Spectrum(eigenvalues=vals, eigenvectors=np.eye(3), residuals=np.zeros(3))
        assert spec.degeneracy_window() == pytest.approx(1e-4)
        state = emergent_state(labeled(BiasedGraph(n=3, diagonal=vals), 3))
        assert state.eigenvalue == -100.0
        assert state.degenerate


class TestFixedPhase:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=8),
        st.booleans(),
    )
    def test_real_states_move_by_sign_and_canonical_ones_not_at_all(self, entries, real):
        c = np.array([complex(re, 0.0 if real else im) for re, im in entries])
        phased = fixed_phase(c)
        if real and np.any(c):
            # to within the rounding of numpy's complex x / x
            assert any(np.allclose(phased, sign * c, rtol=1e-15, atol=0) for sign in (1, -1))
        assert np.array_equal(fixed_phase(phased), phased)
        assert np.allclose(np.abs(phased), np.abs(c), rtol=0, atol=1e-15)

    def test_a_zero_or_subnormal_entry_carries_no_phase(self):
        assert np.array_equal(fixed_phase(np.zeros(2, dtype=complex)), [0, 0])
        # every entry of a tiny state is tied with its largest
        assert np.array_equal(fixed_phase(np.array([0, -1e-17j])), [0, 1e-17])
        # 1 / 2e-311 overflows
        assert np.array_equal(fixed_phase(np.array([2e-311j])), [2e-311j])


class TestEnsembleSpectrum:
    def test_single_realization_matches_exact_histogram(self):
        values = eigenvalues(gen_cycle(8))
        ens = ensemble_spectrum([values], bins=10)
        # C8 has eigenvalues on bin edges: the oracle must see the same values
        exact, _ = np.histogram(values, bins=ens.bin_edges)
        assert np.array_equal(ens.counts, exact)
        assert ens.counts.sum() == 8

    def test_total_count_invariant(self):
        spectra = [eigenvalues(gen_d_regular_random(20, 3, seed=(3, i))) for i in range(7)]
        ens = ensemble_spectrum(spectra, bins=15)
        assert ens.counts.sum() == 7 * 20

    def test_deterministic_under_master_seed(self):
        def spectra():
            return [
                eigenvalues(
                    add_diagonal_disorder(gen_d_regular_random(16, 4, seed=(5, i)), 1.0, seed=(6, i))
                )
                for i in range(5)
            ]

        a = ensemble_spectrum(spectra(), 12)
        b = ensemble_spectrum(spectra(), 12)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.bin_edges, b.bin_edges)

    def test_two_bit_product_shows_four_emergent_clusters(self):
        # emergent eigenvalues sit at d +- k(+-1 +-1): 22, 16 (x2), 10
        def make(i):
            bits = tuple(
                QLBitSpec(24, 16, policy=CrossRegular(3), connect_bias=1.0, seed=(i, t))
                for t in range(2)
            )
            spec = ProductSpec(qlbits=bits, mode="contracted", seed=i)
            return build_contracted_product(spec)

        reals = 12
        # bins about 0.1 wide over the whole spectrum; the bulk stays below 9
        ens = ensemble_spectrum([eigenvalues(make(i)) for i in range(reals)], bins=300)
        centers = 0.5 * (ens.bin_edges[:-1] + ens.bin_edges[1:])

        def count_near(x):
            return int(ens.counts[np.abs(centers - x) <= 0.25].sum())

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
