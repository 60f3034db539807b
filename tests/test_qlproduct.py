import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qllab.errors import MissingLabelsError, NumericalError, QllabError
from qllab.graph import (
    BiasedGraph,
    add_diagonal_disorder,
    block_basis,
    gen_complete,
    gen_cycle,
    gen_d_regular_random,
    graph_to_json,
    rng_from,
)
from qllab.qlbit import (
    CrossRegular,
    EdgeBudgetFraction,
    PairProbability,
    QLBitSpec,
    build_qlbit,
    project_two_state,
)
from qllab.qlproduct import (
    ProductSpec,
    apply_alignment_detuning,
    bit_values,
    block_label,
    build_contracted_product,
    build_full_product,
    cartesian_product,
    full_product_factors,
    label_adjacency,
    project_product_state,
    verify_contraction_law,
    verify_spectrum_composition,
)
from qllab.spectral import eigendecompose, eigenvalues, quotient, quotient_states
from qllab.states import concurrence

# The four equal-weight 2-bit sign patterns in basis order a1b1, a2b1, a1b2,
# a2b2: key "+-" has bit a symmetric and bit b antisymmetric.
SIGN_PATTERNS = {
    "++": np.array([1, 1, 1, 1]) / 2,
    "-+": np.array([1, -1, 1, -1]) / 2,
    "+-": np.array([1, 1, -1, -1]) / 2,
    "--": np.array([1, -1, -1, 1]) / 2,
}


class TestCartesianProduct:
    def test_k2_squared_is_c4(self):
        k2 = gen_complete(2)
        p = cartesian_product(k2, k2)
        assert np.allclose(eigendecompose(p).eigenvalues, [2, 0, 0, -2], atol=1e-12)
        assert (p.degrees() == 2).all()

    def test_c5_squared_eigenvalues(self):
        c5 = gen_cycle(5)
        eig = eigendecompose(cartesian_product(c5, c5)).eigenvalues
        assert eig[0] == pytest.approx(4.0, abs=1e-9)
        assert eig[1] == pytest.approx(2 + 2 * np.cos(2 * np.pi / 5), abs=1e-9)

    def test_counts(self):
        g, h = gen_cycle(5), gen_complete(4)
        p = cartesian_product(g, h)
        assert p.n == g.n * h.n
        assert p.num_edges == g.num_edges * h.n + h.num_edges * g.n

    def test_single_vertex_is_identity(self):
        g = gen_cycle(6)
        one = BiasedGraph(n=1)
        p = cartesian_product(g, one)
        assert np.allclose(
            eigendecompose(p).eigenvalues, eigendecompose(g).eigenvalues, atol=1e-12
        )

    def test_diagonals_add(self):
        g = BiasedGraph.from_edges(2, [(0, 1)], diagonal=[1.0, 2.0])
        h = BiasedGraph.from_edges(2, [(0, 1)], diagonal=[10.0, 20.0])
        p = cartesian_product(g, h)
        # vertex (u, x) at index x*2 + u
        assert np.array_equal(p.diagonal, [11.0, 12.0, 21.0, 22.0])

    def test_labels_combine_blockwise(self):
        g = replace(gen_complete(2), blocks=("a1", "a2"), block_of=[0, 1])
        h = replace(gen_complete(2), blocks=("b1", "b2"), block_of=[0, 1])
        p = cartesian_product(g, h)
        assert graph_to_json(p)["labels"] == {
            "a1b1": [0],
            "a2b1": [1],
            "a1b2": [2],
            "a2b2": [3],
        }

    def test_complex_biases_propagate(self):
        g = BiasedGraph.from_edges(3, [(0, 1), (1, 2)], [1j, np.exp(0.4j)])
        h = gen_cycle(4)
        _, spectrum = verify_spectrum_composition(g, h)
        assert np.iscomplexobj(spectrum.eigenvectors)


def composed_sum(*factors):
    """The Kronecker-sum eigenvalues of the factors, non-increasing."""
    lam = eigendecompose(factors[0]).eigenvalues
    for f in factors[1:]:
        lam = np.add.outer(eigendecompose(f).eigenvalues, lam).ravel()
    return np.sort(lam)[::-1]


class TestVerifySpectrumComposition:
    """`verify_spectrum_composition` checks the Kronecker-sum law on every column."""

    def test_c5_pair(self):
        c5 = gen_cycle(5)
        product, spectrum = verify_spectrum_composition(c5, c5)
        assert product.n == 25
        assert np.allclose(spectrum.eigenvalues, composed_sum(c5, c5), atol=1e-12)

    def test_random_small_pairs(self):
        for seed in range(5):
            g = gen_d_regular_random(8, 3, seed=(seed, "g"))
            h = gen_d_regular_random(10, 3, seed=(seed, "h"))
            _, spectrum = verify_spectrum_composition(g, h)
            assert np.allclose(spectrum.eigenvalues, composed_sum(g, h), atol=1e-12)

    def test_three_factors_all_columns(self):
        g = BiasedGraph.from_edges(3, [(0, 1), (1, 2)], [1j, np.exp(0.4j)], diagonal=[0.5, 0, -1])
        factors = (g, gen_cycle(4), gen_complete(3))
        product, spectrum = verify_spectrum_composition(*factors)
        a = product.adjacency()
        w, lam = spectrum.eigenvectors, spectrum.eigenvalues
        assert np.linalg.norm(a @ w - w * lam, axis=0).max() <= 1e-12
        assert np.allclose(w.conj().T @ w, np.eye(product.n), atol=1e-12)

    def test_factor_side_does_not_share_the_edge_operator(self, monkeypatch):
        # a fault in the edge-array code, here a dropped diagonal, reaches the
        # product side only: the factor side reads each dense A_k, so the
        # fault cannot cancel out of the comparison
        import qllab.graph

        edge_operator = qllab.graph.edge_operator

        def no_diagonal(n, edges, weights, diagonal=None):
            return edge_operator(n, edges, weights)

        monkeypatch.setattr(qllab.graph, "edge_operator", no_diagonal)
        g = BiasedGraph.from_edges(3, [(0, 1), (1, 2)], [1j, np.exp(0.4j)], diagonal=[0.5, 0, -1])
        with pytest.raises(NumericalError, match="not the Cartesian product of its factors"):
            verify_spectrum_composition(g, gen_cycle(4), gen_complete(3))

    def test_rejects_a_product_that_is_not_cartesian(self, monkeypatch):
        import qllab.qlproduct

        def dropped_edge(g, h):
            p = cartesian_product(g, h)
            return replace(p, edges=p.edges[1:], bias=p.bias[1:])

        monkeypatch.setattr(qllab.qlproduct, "cartesian_product", dropped_edge)
        with pytest.raises(NumericalError, match="residual"):
            verify_spectrum_composition(gen_cycle(4), gen_cycle(5), gen_complete(2))

    def test_detects_wrong_spectrum(self):
        # oracle sanity: a graph that is NOT a Cartesian product of the
        # factors fails the multiset comparison
        from qllab.qlproduct import cartesian_product as cp

        g, h = gen_cycle(4), gen_cycle(5)
        p = cp(g, h)
        expected = np.sort(
            np.add.outer(
                eigendecompose(g).eigenvalues, eigendecompose(h).eigenvalues
            ).ravel()
        )
        actual = np.sort(eigendecompose(p).eigenvalues)
        assert np.allclose(expected, actual, atol=1e-8)
        tampered = gen_d_regular_random(20, 4, seed=0)
        wrong = np.sort(eigendecompose(tampered).eigenvalues)
        assert not np.allclose(expected, wrong, atol=1e-8)


def kron_oracle(*factors):
    """W, lambda and residuals by np.kron, a stable argsort and a dense A @ W."""
    spectra = [eigendecompose(f) for f in factors]
    w, lam = spectra[0].eigenvectors, spectra[0].eigenvalues
    for s in spectra[1:]:
        w = np.kron(s.eigenvectors, w)
        lam = np.add.outer(s.eigenvalues, lam).ravel()
    order = np.argsort(-lam, kind="stable")
    w, lam = w[:, order], lam[order]
    a = reduce(cartesian_product, factors).adjacency()
    return w, lam, np.linalg.norm(a @ w - w * lam, axis=0)


def _bit6(connect_bias=1.0, sigma=0.0, seed=4):
    """A 6-vertex QL bit, optionally with diagonal disorder."""
    bit = build_qlbit(QLBitSpec(3, 2, connect_bias=connect_bias, seed=seed))
    return add_diagonal_disorder(bit, sigma, seed=seed) if sigma else bit


def _complex_cycle(n, phase):
    """C_n with every edge bias exp(i * phase)."""
    i = np.arange(n)
    return BiasedGraph.from_edges(n, np.stack([i, (i + 1) % n], axis=1), np.full(n, np.exp(1j * phase)))


FACTOR_SETS = {
    "c5-bit6": lambda: [gen_cycle(5), _bit6()],
    "bit6-c5": lambda: [_bit6(), gen_cycle(5)],
    "c5-k2-bit6": lambda: [gen_cycle(5), gen_complete(2), _bit6()],
    "complex-bit6-c5": lambda: [_bit6(1j), gen_cycle(5)],
    "complex-c5-k2-bit6": lambda: [_complex_cycle(5, 0.3), gen_complete(2), _bit6(np.exp(0.9j))],
    "disordered-c5-k2-bit6": lambda: [
        add_diagonal_disorder(gen_cycle(5), 0.4, seed=1), gen_complete(2), _bit6(sigma=0.25)
    ],
    "complex-disordered-bit6-k3-c4": lambda: [
        _bit6(-1j, sigma=0.3), gen_complete(3), add_diagonal_disorder(_complex_cycle(4, 1.1), 0.2, seed=2)
    ],
}


class TestFactoredCheck:
    """The composition and its proof against the np.kron / dense A @ W oracle."""

    @pytest.mark.parametrize(
        "name, columns",
        [pytest.param(name, None, id=name) for name in FACTOR_SETS]
        + [pytest.param(name, 3, id=f"{name}-3-columns") for name in FACTOR_SETS],
    )
    def test_matches_kron_oracle_bit_for_bit(self, name, columns):
        factors = FACTOR_SETS[name]()
        product, spectrum = verify_spectrum_composition(*factors, columns=columns)
        w, lam, residual = kron_oracle(*factors)
        w = w[:, :columns]
        assert product.n == w.shape[0]
        assert np.array_equal(spectrum.eigenvalues, lam)
        assert np.array_equal(spectrum.eigenvectors, w)
        # same memory layout too: products read off W round as the oracle's
        assert spectrum.eigenvectors.dtype == w.dtype
        assert spectrum.eigenvectors.strides == w.strides
        assert residual.max() <= 1e-12
        # the composed residuals bound the true ones
        assert np.all(residual <= spectrum.residuals + 1e-14)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda p, _: replace(p, edges=p.edges[1:], bias=p.bias[1:]),
            lambda p, _: replace(p, bias=np.r_[p.bias[:7], -p.bias[7], p.bias[8:]]),
            lambda p, _: replace(p, diagonal=p.diagonal + 1e-6 * (np.arange(p.n) == 11)),
            # the same spectrum on the same vertex count: only the structure
            # check can tell h [] g from g [] h
            lambda _, factors: reduce(cartesian_product, factors[::-1]),
        ],
        ids=["dropped-edge", "flipped-bias", "moved-diagonal", "reversed-factors"],
    )
    @pytest.mark.parametrize("name", ["c5-bit6", "complex-c5-k2-bit6", "disordered-c5-k2-bit6"])
    def test_rejects_a_tampered_product(self, monkeypatch, tamper, name):
        import qllab.qlproduct

        # only the finished product is tampered with; its factors stay intact
        monkeypatch.setattr(qllab.qlproduct, "reduce", lambda f, xs: tamper(reduce(f, xs), xs))
        with pytest.raises(NumericalError, match="not the Cartesian product of its factors"):
            verify_spectrum_composition(*FACTOR_SETS[name]())


def _clusters(spectrum):
    """Index ranges of eigenvalue clusters split at gaps wider than DEGENERACY_TOL."""
    split = np.flatnonzero(-np.diff(spectrum.eigenvalues) > spectrum.degeneracy_window()) + 1
    return list(zip(np.r_[0, split], np.r_[split, spectrum.n]))


def _full_factors(q, connect_bias, sigma):
    bits = tuple(QLBitSpec(4, 3, connect_bias=connect_bias, seed=20 + j) for j in range(q))
    factors = full_product_factors(ProductSpec(qlbits=bits, mode="full"))
    if sigma:
        factors = [add_diagonal_disorder(f, sigma, seed=j) for j, f in enumerate(factors)]
    return factors


class TestComposedAgainstDense:
    """The dense solve of the built product is the oracle of the composed route."""

    @pytest.mark.parametrize(
        "factors",
        [
            _full_factors(2, 1.0, 0.0),
            _full_factors(2, 1j, 0.0),
            _full_factors(2, np.exp(0.7j), 0.3),
            _full_factors(3, 1.0, 0.0),
            _full_factors(3, -1j, 0.2),
            [gen_cycle(6), gen_cycle(6)],
            _full_factors(1, 1.0, 0.0) * 2,
        ],
        ids=["q2-real", "q2-complex", "q2-complex-diagonal", "q3-real", "q3-complex-diagonal",
             "identical-cycles", "identical-bits"],
    )
    def test_eigenvalues_and_cluster_projectors_match(self, factors):
        product, composed = verify_spectrum_composition(*factors)
        dense = eigendecompose(reduce(cartesian_product, factors))
        scale = np.maximum(1.0, np.abs(dense.eigenvalues))
        assert np.all(np.abs(composed.eigenvalues - dense.eigenvalues) <= 1e-12 * scale)
        clusters = _clusters(dense)
        assert _clusters(composed) == clusters
        for lo, hi in clusters:
            v, w = dense.eigenvectors[:, lo:hi], composed.eigenvectors[:, lo:hi]
            assert np.abs(v @ v.conj().T - w @ w.conj().T).max() <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([(3, 2), (4, 2), (4, 3)]),
                st.sampled_from([1.0, -1.0, 1j, np.exp(0.7j)]),
                st.sampled_from([0.0, 0.3]),
                st.integers(0, 2**16),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_composed_eigenvalues_are_the_built_products(self, bits):
        # the spectrum-composition invariant: the Kronecker sum of the factor
        # spectra is the spectrum of the Cartesian product
        factors = []
        for (n, d), connect_bias, sigma, seed in bits:
            bit = build_qlbit(QLBitSpec(n, d, connect_bias=connect_bias, seed=seed))
            factors.append(add_diagonal_disorder(bit, sigma, seed=seed) if sigma else bit)
        product, spectrum = verify_spectrum_composition(*factors)
        expected = np.linalg.eigvalsh(product.adjacency())[::-1]
        scale = np.maximum(1.0, np.abs(expected))
        assert np.all(np.abs(spectrum.eigenvalues - expected) <= 1e-12 * scale)

    def test_tied_sums_keep_composition_order(self):
        n = 30
        path = BiasedGraph.from_edges(n, [(u, u + 1) for u in range(n - 1)])  # simple spectrum
        _, spectrum = verify_spectrum_composition(path, path)
        factor = eigendecompose(path)
        lam, v = factor.eigenvalues, factor.eigenvectors
        # lambda_i + lambda_j and lambda_j + lambda_i are one float; ties keep
        # the composition index k = j * n + i (column v_j (x) v_i), as
        # Python's stable sort orders them
        order = sorted(range(n * n), key=lambda k: -(lam[k // n] + lam[k % n]))
        assert np.array_equal(spectrum.eigenvalues, [lam[k // n] + lam[k % n] for k in order])
        expected = np.stack([np.kron(v[:, k // n], v[:, k % n]) for k in order], axis=1)
        assert np.array_equal(spectrum.eigenvectors, expected)

    def test_product_is_the_built_full_product(self):
        bits = (QLBitSpec(4, 3, seed=1), QLBitSpec(4, 3, connect_bias=1j, seed=2))
        spec = ProductSpec(qlbits=bits, mode="full")
        product, _ = verify_spectrum_composition(*full_product_factors(spec))
        assert graph_to_json(product) == graph_to_json(build_full_product(spec))


class TestContractedProduct:
    def test_q1_is_ordinary_qlbit(self):
        bit = QLBitSpec(14, 4, policy=EdgeBudgetFraction(0.2), seed=1)
        spec = ProductSpec(qlbits=(bit,), mode="contracted", seed=2)
        g = build_contracted_product(spec)
        assert g.n == 28
        assert set(g.blocks) == {"a1", "a2"}
        side = ~np.isin(g.edges, graph_to_json(g)["labels"]["a1"])  # 0 in a1, 1 in a2
        same = side[:, 0] == side[:, 1]
        intra = np.bincount(side[same, 0], minlength=2)
        assert intra.tolist() == [28, 28]  # 14 * 4 / 2 each
        assert np.count_nonzero(~same) == round(0.2 * 14 * 4)

    def test_q2_label_cycle(self):
        bits = tuple(QLBitSpec(10, 4, seed=t) for t in range(2))
        spec = ProductSpec(qlbits=bits, mode="contracted", seed=0)
        g = build_contracted_product(spec)
        assert g.n == 40
        assert label_adjacency(g) == {
            frozenset(("a1b1", "a2b1")),
            frozenset(("a1b2", "a2b2")),
            frozenset(("a1b1", "a1b2")),
            frozenset(("a2b1", "a2b2")),
        }

    def test_q3_hypercube_connectivity(self):
        bits = tuple(QLBitSpec(8, 4, seed=t) for t in range(3))
        spec = ProductSpec(qlbits=bits, mode="contracted", seed=1)
        g = build_contracted_product(spec)
        assert g.n == 8 * 8
        pairs = label_adjacency(g)
        assert len(pairs) == 12  # 3 * 2^2 hypercube edges
        for pair in pairs:
            va, vb = (bit_values(g.blocks.index(label), 3) for label in pair)
            assert sum(x != y for x, y in zip(va, vb)) == 1

    def test_label_pair_law_needs_every_pair_a_budget_must_join(self):
        bits = tuple(QLBitSpec(10, 4, policy=EdgeBudgetFraction(0.2), seed=t) for t in range(2))
        spec = ProductSpec(qlbits=bits, mode="contracted", seed=0)
        g = build_contracted_product(spec)
        verify_contraction_law(spec, g, None)
        side = g.block_of[g.edges]
        keep = ~((side[:, 0] == 0) & (side[:, 1] == 1))  # no a1b1 - a2b1 edge
        cut = BiasedGraph.from_edges(g.n, g.edges[keep], g.bias[keep], None, g.blocks, g.block_of)
        with pytest.raises(QllabError, match="wrong label pairs"):
            verify_contraction_law(spec, cut, None)

    def test_label_pair_law_lets_chance_leave_a_pair_unjoined(self):
        bits = (QLBitSpec(6, 3, policy=PairProbability(0.05), seed=0), QLBitSpec(6, 3, seed=1))
        spec = ProductSpec(qlbits=bits, mode="contracted", seed=3)
        g = build_contracted_product(spec)
        assert len(label_adjacency(g)) == 3  # one pair of bit a drew no edge
        verify_contraction_law(spec, g, None)

    def test_vertex_count_law(self):
        for q in (1, 2, 3):
            bits = tuple(QLBitSpec(6, 3, seed=t) for t in range(q))
            spec = ProductSpec(qlbits=bits, mode="contracted", seed=5)
            assert build_contracted_product(spec).n == 6 * 2**q

    def test_full_mode_vertex_count(self):
        bits = tuple(QLBitSpec(5, 2, seed=t) for t in range(2))
        g = build_full_product(ProductSpec(qlbits=bits, mode="full"))
        assert g.n == 10**2


class TestProductSpec:
    def test_contracted_bits_share_one_block_shape(self):
        # a contracted product's blocks are its bits' blocks, so each bit
        # must have the first bit's n and d; a full product keeps each bit's own
        first = QLBitSpec(8, 3)
        for j, field, bits in (
            (1, "n", (first, QLBitSpec(10, 3))),
            (1, "d", (first, QLBitSpec(8, 4))),
            (2, "n", (first, first, QLBitSpec(6, 3))),
        ):
            with pytest.raises(QllabError, match=rf"^qlbits\[{j}\]\.{field}: "):
                ProductSpec(qlbits=bits, mode="contracted")
        mixed = ProductSpec(qlbits=(first, QLBitSpec(10, 4)), mode="full")
        assert build_full_product(mixed).n == 16 * 20


class TestBasisAndProjection:
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("build", [build_full_product, build_contracted_product])
    def test_blocks_are_built_in_basis_order(self, build, q):
        # block k carries bit_values(k, q), the first bit fastest: the one
        # rule every reader of a product's blocks relies on
        bits = tuple(QLBitSpec(6, 3, seed=t) for t in range(q))
        mode = "full" if build is build_full_product else "contracted"
        g = build(ProductSpec(qlbits=bits, mode=mode, seed=0))
        assert g.blocks == tuple(block_label(bit_values(k, q)) for k in range(2**q))

    def test_block_basis_orthonormal_and_complete(self):
        bits = tuple(QLBitSpec(6, 3, seed=t) for t in range(2))
        g = build_contracted_product(
            ProductSpec(qlbits=bits, mode="contracted", seed=0)
        )
        j = block_basis(g, g.blocks)
        assert np.abs(j.T @ j - np.eye(4)).max() <= 1e-12
        uniform = np.ones(g.n) / np.sqrt(g.n)
        overlaps = j.T @ uniform
        assert abs((overlaps**2).sum() - 1.0) <= 1e-12

    def test_non_contiguous_labels_respected(self):
        # interleave two blocks; indicators must follow the labels
        edges = [(0, 2), (1, 3)]
        g = BiasedGraph.from_edges(4, edges, blocks=("a1", "a2"), block_of=[0, 1, 1, 0])
        j = block_basis(g, g.blocks)
        assert np.allclose(j[:, 0], [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
        assert np.allclose(project_product_state(g, j[:, 1]).coefficients, [0, 1])

    def test_projection_of_indicator(self):
        bits = tuple(QLBitSpec(6, 3, seed=t) for t in range(2))
        g = build_contracted_product(
            ProductSpec(qlbits=bits, mode="contracted", seed=0)
        )
        eff = project_product_state(g, block_basis(g, ["a1b1"])[:, 0])
        assert np.allclose(eff.coefficients, [1, 0, 0, 0], atol=1e-12)
        assert eff.residual <= 1e-8

    def test_matrix_projects_each_column_as_a_vector(self):
        bits = tuple(QLBitSpec(6, 3, seed=t) for t in range(2))
        g = build_contracted_product(
            ProductSpec(qlbits=bits, mode="contracted", seed=0)
        )
        w = eigendecompose(g).eigenvectors[:, :5]
        states = project_product_state(g, w)
        assert len(states) == 5
        for i, eff in enumerate(states):
            one = project_product_state(g, w[:, i])
            assert np.array_equal(eff.coefficients, one.coefficients)
            assert eff.residual == one.residual
        assert project_product_state(g, w[:, :0]) == []

    def test_one_bit_graph_projects_alike_on_both_paths(self):
        g = build_qlbit(QLBitSpec(12, 4, seed=2))
        rng = rng_from(5)
        w = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
        for v in (*eigendecompose(g).eigenvectors[:, :3].T, w / np.linalg.norm(w)):
            two, product = project_two_state(g, v), project_product_state(g, v)
            assert np.array_equal(two.coefficients, product.coefficients)
            assert two.residual == product.residual

    def test_unlabeled_graph_has_no_product_basis(self):
        with pytest.raises(MissingLabelsError):
            project_product_state(gen_cycle(4), np.ones(4) / 2)

    def test_norm_budget(self):
        bits = tuple(QLBitSpec(6, 3, seed=t) for t in range(2))
        g = build_contracted_product(
            ProductSpec(qlbits=bits, mode="contracted", seed=0)
        )
        rng = rng_from(17)
        w = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
        w /= np.linalg.norm(w)
        eff = project_product_state(g, w)
        total = float(np.sum(np.abs(eff.coefficients) ** 2) + eff.residual**2)
        assert abs(total - 1.0) <= 1e-8

    def test_residual_of_an_exact_state_has_no_cancellation_floor(self):
        # sqrt(||w||^2 - ||c||^2) of the top state read 1.05e-8 here
        bit = QLBitSpec(10, 4, policy=CrossRegular(1), seed=8)
        g = build_contracted_product(ProductSpec(qlbits=(bit, bit), mode="contracted", seed=8))
        eff = project_product_state(g, eigendecompose(g).eigenvectors[:, 0])
        assert eff.residual <= 1e-13

    def test_top_states_recover_patterns(self):
        for key in ("++", "-+", "+-", "--"):
            biases = [1.0 if c == "+" else -1.0 for c in key]
            bits = tuple(
                QLBitSpec(30, 10, connect_bias=biases[t], seed=(key, t))
                for t in range(2)
            )
            spec = ProductSpec(qlbits=bits, mode="contracted", seed=3)
            g = build_contracted_product(spec)
            eff = project_product_state(g, eigendecompose(g).eigenvectors[:, 0])
            c = eff.coefficients / np.linalg.norm(eff.coefficients)
            assert abs(np.vdot(c, SIGN_PATTERNS[key])) ** 2 >= 0.9


class TestFullVersusContracted:
    def test_full_product_identical_bits_middle_pair_exact(self):
        bit = QLBitSpec(10, 5, policy=EdgeBudgetFraction(0.2), seed=9)
        g = build_full_product(ProductSpec(qlbits=(bit, bit), mode="full"))
        spec = eigendecompose(g)
        assert abs(spec.eigenvalues[1] - spec.eigenvalues[2]) <= spec.degeneracy_window()

    def test_four_emergent_patterns_both_modes(self):
        def emergent_set(g):
            spec = eigendecompose(g)
            found = []
            for i in range(spec.n):
                eff = project_product_state(g, spec.eigenvectors[:, i])
                weight = float(np.sum(np.abs(eff.coefficients) ** 2))
                if weight > 0.5:
                    found.append((spec.eigenvalues[i], eff.coefficients / np.sqrt(weight)))
            return spec, found

        bit = QLBitSpec(10, 5, policy=EdgeBudgetFraction(0.2), seed=9)
        full = build_full_product(ProductSpec(qlbits=(bit, bit), mode="full"))
        cbit = QLBitSpec(24, 8, policy=CrossRegular(2), seed=4)
        contracted = build_contracted_product(
            ProductSpec(qlbits=(cbit, cbit), mode="contracted", seed=5)
        )
        for g in (full, contracted):
            spec, found = emergent_set(g)
            assert len(found) == 4
            top = found[0][1]
            bottom = found[3][1]
            assert abs(np.vdot(top, SIGN_PATTERNS["++"])) ** 2 >= 0.9
            assert abs(np.vdot(bottom, SIGN_PATTERNS["--"])) ** 2 >= 0.9
            # middle pair may be returned in an arbitrary degenerate basis:
            # project each pattern onto an orthonormal basis of its span
            middle, _ = np.linalg.qr(np.column_stack([found[1][1], found[2][1]]))
            assert np.linalg.norm(middle.conj().T @ SIGN_PATTERNS["+-"]) ** 2 >= 0.9
            assert np.linalg.norm(middle.conj().T @ SIGN_PATTERNS["-+"]) ** 2 >= 0.9

    def test_contracted_middle_pair_exactly_degenerate_with_regular_cross(self):
        cbit = QLBitSpec(24, 8, policy=CrossRegular(2), seed=4)
        g = build_contracted_product(
            ProductSpec(qlbits=(cbit, cbit), mode="contracted", seed=5)
        )
        spec = eigendecompose(g)
        assert abs(spec.eigenvalues[1] - spec.eigenvalues[2]) <= spec.degeneracy_window()

    def test_emergent_scale_full_2d_contracted_d(self):
        d, f = 8, 0.2
        bit = QLBitSpec(10, d, policy=EdgeBudgetFraction(f), seed=2)
        full_top = eigendecompose(
            build_full_product(ProductSpec(qlbits=(bit, bit), mode="full"))
        ).eigenvalues[0]
        cbit = QLBitSpec(20, d, policy=EdgeBudgetFraction(f), seed=2)
        contracted_top = eigendecompose(
            build_contracted_product(
                ProductSpec(qlbits=(cbit, cbit), mode="contracted", seed=1)
            )
        ).eigenvalues[0]
        assert 2 * d <= full_top <= 2 * d * (1 + 2 * f)
        assert d <= contracted_top <= d * (1 + 3 * f)


class TestDetuning:
    def _graph(self):
        bits = tuple(QLBitSpec(8, 3, seed=t) for t in range(2))
        return build_contracted_product(
            ProductSpec(qlbits=bits, mode="contracted", seed=6)
        )

    def test_alignment_detuning_targets_aligned_blocks_only(self):
        g = self._graph()
        shifted = apply_alignment_detuning(g, 5.0, 7.0)
        delta = shifted.diagonal - g.diagonal
        for label, verts in graph_to_json(g)["labels"].items():
            values = bit_values(g.blocks.index(label), 2)
            if all(v == 1 for v in values):
                expected = 5.0
            elif all(v == 2 for v in values):
                expected = 7.0
            else:
                expected = 0.0
            assert np.allclose(delta[list(verts)], expected)

    def test_alignment_detuning_entangles_partially(self):
        cbit = QLBitSpec(32, 12, policy=CrossRegular(2), seed=1)
        g = build_contracted_product(
            ProductSpec(qlbits=(cbit, cbit), mode="contracted", seed=5)
        )
        detuned = apply_alignment_detuning(g, 4.0, 2.0)
        eff = project_product_state(detuned, eigendecompose(detuned).eigenvectors[:, 0])
        c = concurrence(eff.coefficients / np.linalg.norm(eff.coefficients))
        assert 0.05 < c < 0.95

    def test_missing_labels(self):
        with pytest.raises(MissingLabelsError):
            apply_alignment_detuning(gen_cycle(4), 1.0, 2.0)

    @pytest.mark.parametrize("omega", [0.0, 0.5, 1.0, 2.0, 4.0])
    def test_entanglement_law_of_the_aligned_detuning(self, omega):
        # Detuning the aligned blocks of a q 2 product of cross-regular bits
        # keeps the partition equitable.  On the symmetric states
        # (|11> + |22>)/sqrt(2) and (|21> + |12>)/sqrt(2), H_eff - d is
        # [[omega, 2c], [2c, 0]], so the top level is d + e with
        # e = (omega + sqrt(omega^2 + 16 c^2)) / 2, and its state has
        # concurrence e omega / (e omega + 8 c^2): 0 undetuned, rising
        # toward a Bell state as omega grows.
        d, c = 6, 1
        bit = QLBitSpec(30, d, CrossRegular(c))
        g = build_contracted_product(ProductSpec(qlbits=(bit, bit), mode="contracted", seed=11))
        detuned = apply_alignment_detuning(g, omega, omega)
        quo = quotient(detuned)
        assert quo.equitable
        top = quotient_states(detuned, quo, eigenvalues(detuned))[0]
        e = (omega + math.sqrt(omega**2 + 16 * c**2)) / 2
        assert abs(top.eigenvalue - (d + e)) <= 1e-12
        assert abs(concurrence(top.coefficients) - e * omega / (e * omega + 8 * c**2)) <= 1e-12


def test_bit_values_enumeration():
    assert [bit_values(k, 2) for k in range(4)] == [
        (1, 1),
        (2, 1),
        (1, 2),
        (2, 2),
    ]


def test_basis_count_by_level_occupation():
    for n in (2, 3, 5):
        by_p = {}
        for k in range(2**n):
            p = sum(v == 2 for v in bit_values(k, n))
            by_p[p] = by_p.get(p, 0) + 1
        assert by_p == {p: math.comb(n, p) for p in range(n + 1)}
        assert sum(by_p.values()) == 2**n


@st.composite
def contracted_specs(draw):
    """Contracted products of 1-3 bits of one drawn block shape under every
    policy kind, with empty policies and unconnected bits among them."""
    policies = st.one_of(
        st.builds(PairProbability, st.sampled_from([0.0, 0.02, 0.1, 1.0])),
        st.builds(EdgeBudgetFraction, st.sampled_from([0.0, 0.01, 0.2])),
        st.builds(CrossRegular, st.integers(0, 2)),
    )
    n = draw(st.integers(4, 8))
    d = draw(st.integers(2, 3))
    if n * d % 2:
        n += 1
    bits = tuple(
        QLBitSpec(n, d, policy=draw(policies), connect_bias=draw(st.sampled_from([1.0, -1.0, 1j, 0.0])))
        for _ in range(draw(st.integers(1, 3)))
    )
    return ProductSpec(qlbits=bits, mode="contracted", seed=draw(st.integers(0, 2**16)))


@settings(max_examples=60, deadline=None)
@given(contracted_specs())
def test_every_built_contracted_product_obeys_its_contraction_law(spec):
    g = build_contracted_product(spec)
    verify_contraction_law(spec, g, quotient(g))


def test_product_spec_validation():
    with pytest.raises(QllabError):
        ProductSpec(qlbits=(), mode="full")
    with pytest.raises(QllabError):
        ProductSpec(qlbits=(QLBitSpec(6, 3),), mode="sideways")
