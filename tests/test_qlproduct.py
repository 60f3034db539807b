from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from qllab.errors import MissingLabelsError, NumericalError, PolicyInfeasibleError, QllabError
from qllab.graph import (
    BiasedGraph,
    add_diagonal_disorder,
    gen_complete,
    gen_cycle,
    gen_d_regular_random,
    graph_to_json,
    rng_from,
)
from qllab.qlbit import CrossRegular, EdgeBudgetFraction, qlbit_spec
from qllab.qlproduct import (
    ProductSpec,
    apply_alignment_detuning,
    bit_values,
    build_contracted_product,
    build_full_product,
    cartesian_product,
    full_product_factors,
    label_adjacency,
    parse_block_label,
    product_basis_labels,
    product_j_vectors,
    project_product_state,
    sign_pattern_states,
    verify_spectrum_composition,
)
from qllab.spectral import eigendecompose
from qllab.states import concurrence, density_from_state


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


def _clusters(spectrum):
    """Index ranges of eigenvalue clusters split at gaps wider than DEGENERACY_TOL."""
    split = np.flatnonzero(-np.diff(spectrum.eigenvalues) > spectrum.degeneracy_window()) + 1
    return list(zip(np.r_[0, split], np.r_[split, spectrum.n]))


def _full_factors(q, connect_bias, sigma):
    bits = tuple(qlbit_spec(4, 3, connect_bias=connect_bias, seed=20 + j) for j in range(q))
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
        bits = (qlbit_spec(4, 3, seed=1), qlbit_spec(4, 3, connect_bias=1j, seed=2))
        spec = ProductSpec(qlbits=bits, mode="full")
        product, _ = verify_spectrum_composition(*full_product_factors(spec))
        assert graph_to_json(product) == graph_to_json(build_full_product(spec))


class TestContractedProduct:
    def test_q1_is_ordinary_qlbit(self):
        bit = qlbit_spec(14, 4, policy=EdgeBudgetFraction(0.2), seed=1)
        spec = ProductSpec(qlbits=(bit,), mode="contracted", n=14, d=4, seed=2)
        g = build_contracted_product(spec)
        assert g.n == 28
        assert set(g.blocks) == {"a1", "a2"}
        side = ~np.isin(g.edges, graph_to_json(g)["labels"]["a1"])  # 0 in a1, 1 in a2
        same = side[:, 0] == side[:, 1]
        intra = np.bincount(side[same, 0], minlength=2)
        assert intra.tolist() == [28, 28]  # 14 * 4 / 2 each
        assert np.count_nonzero(~same) == round(0.2 * 14 * 4)

    def test_q2_label_cycle(self):
        bits = tuple(qlbit_spec(10, 4, seed=t) for t in range(2))
        spec = ProductSpec(qlbits=bits, mode="contracted", n=10, d=4, seed=0)
        g = build_contracted_product(spec)
        assert g.n == 40
        assert label_adjacency(g) == {
            frozenset(("a1b1", "a2b1")),
            frozenset(("a1b2", "a2b2")),
            frozenset(("a1b1", "a1b2")),
            frozenset(("a2b1", "a2b2")),
        }

    def test_q3_hypercube_connectivity(self):
        bits = tuple(qlbit_spec(8, 4, seed=t) for t in range(3))
        spec = ProductSpec(qlbits=bits, mode="contracted", n=8, d=4, seed=1)
        g = build_contracted_product(spec)
        assert g.n == 8 * 8
        pairs = label_adjacency(g)
        assert len(pairs) == 12  # 3 * 2^2 hypercube edges
        for pair in pairs:
            a, b = sorted(pair)
            _, va = parse_block_label(a)
            _, vb = parse_block_label(b)
            assert sum(x != y for x, y in zip(va, vb)) == 1

    def test_vertex_count_law(self):
        for q in (1, 2, 3):
            bits = tuple(qlbit_spec(6, 3, seed=t) for t in range(q))
            spec = ProductSpec(qlbits=bits, mode="contracted", n=6, d=3, seed=5)
            assert build_contracted_product(spec).n == 6 * 2**q

    def test_full_mode_vertex_count(self):
        bits = tuple(qlbit_spec(5, 2, seed=t) for t in range(2))
        g = build_full_product(ProductSpec(qlbits=bits, mode="full"))
        assert g.n == 10**2


class TestProductSpec:
    def test_contracted_spec_checks_each_policy_against_its_blocks(self):
        # each bit fits its own 20-vertex blocks but not the product's 4-vertex ones
        budget = qlbit_spec(20, 3, policy=EdgeBudgetFraction(3.0))  # 24 > 16 pairs at n=4, d=2
        cross = qlbit_spec(20, 3, policy=CrossRegular(5))
        fits = qlbit_spec(20, 3)
        for j, bits in ((0, (budget,)), (1, (fits, budget)), (1, (fits, cross))):
            with pytest.raises(PolicyInfeasibleError, match=rf"^qlbits\[{j}\]\.policy\."):
                ProductSpec(qlbits=bits, mode="contracted", n=4, d=2)
        ProductSpec(qlbits=(budget, cross), mode="full")  # full products keep each bit's blocks


class TestBasisAndProjection:
    def test_canonical_order_first_bit_fastest(self):
        bits = tuple(qlbit_spec(6, 3, seed=t) for t in range(2))
        g = build_contracted_product(
            ProductSpec(qlbits=bits, mode="contracted", n=6, d=3, seed=0)
        )
        assert product_basis_labels(g) == ["a1b1", "a2b1", "a1b2", "a2b2"]

    def test_j_vectors_orthonormal_and_complete(self):
        bits = tuple(qlbit_spec(6, 3, seed=t) for t in range(2))
        g = build_contracted_product(
            ProductSpec(qlbits=bits, mode="contracted", n=6, d=3, seed=0)
        )
        j = product_j_vectors(g)
        assert np.abs(j.T @ j - np.eye(4)).max() <= 1e-12
        uniform = np.ones(g.n) / np.sqrt(g.n)
        overlaps = j.T @ uniform
        assert abs((overlaps**2).sum() - 1.0) <= 1e-12

    def test_non_contiguous_labels_respected(self):
        # interleave two blocks; indicators must follow the labels
        edges = [(0, 2), (1, 3)]
        g = BiasedGraph.from_edges(4, edges, blocks=("a1", "a2"), block_of=[0, 1, 1, 0])
        j = product_j_vectors(g)
        assert np.allclose(j[:, 0], [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_projection_of_indicator(self):
        bits = tuple(qlbit_spec(6, 3, seed=t) for t in range(2))
        g = build_contracted_product(
            ProductSpec(qlbits=bits, mode="contracted", n=6, d=3, seed=0)
        )
        j = product_j_vectors(g)
        eff = project_product_state(g, j[:, 0])
        assert np.allclose(eff.coefficients, [1, 0, 0, 0], atol=1e-12)
        assert eff.residual <= 1e-8

    def test_norm_budget(self):
        bits = tuple(qlbit_spec(6, 3, seed=t) for t in range(2))
        g = build_contracted_product(
            ProductSpec(qlbits=bits, mode="contracted", n=6, d=3, seed=0)
        )
        rng = rng_from(17)
        w = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
        w /= np.linalg.norm(w)
        eff = project_product_state(g, w)
        total = float(np.sum(np.abs(eff.coefficients) ** 2) + eff.residual**2)
        assert abs(total - 1.0) <= 1e-8

    def test_sign_patterns(self):
        pats = sign_pattern_states(2)
        assert set(pats) == {"++", "-+", "+-", "--"}
        assert np.allclose(pats["++"], np.ones(4) / 2)
        assert np.allclose(pats["-+"], [0.5, -0.5, 0.5, -0.5])
        assert np.allclose(pats["+-"], [0.5, 0.5, -0.5, -0.5])
        assert np.allclose(pats["--"], [0.5, -0.5, -0.5, 0.5])
        m = np.column_stack(list(pats.values()))
        assert np.abs(m.T @ m - np.eye(4)).max() <= 1e-12

    def test_top_states_recover_patterns(self):
        pats = sign_pattern_states(2)
        for key in ("++", "-+", "+-", "--"):
            biases = [1.0 if c == "+" else -1.0 for c in key]
            bits = tuple(
                qlbit_spec(30, 10, connect_bias=biases[t], seed=(key, t))
                for t in range(2)
            )
            spec = ProductSpec(qlbits=bits, mode="contracted", n=30, d=10, seed=3)
            g = build_contracted_product(spec)
            eff = project_product_state(g, eigendecompose(g).eigenvectors[:, 0])
            assert abs(np.vdot(eff.normalized(), pats[key])) ** 2 >= 0.9


class TestFullVersusContracted:
    def test_full_product_identical_bits_middle_pair_exact(self):
        bit = qlbit_spec(10, 5, policy=EdgeBudgetFraction(0.2), seed=9)
        g = build_full_product(ProductSpec(qlbits=(bit, bit), mode="full"))
        spec = eigendecompose(g)
        assert abs(spec.eigenvalues[1] - spec.eigenvalues[2]) <= spec.degeneracy_window()

    def test_four_emergent_patterns_both_modes(self):
        pats = sign_pattern_states(2)

        def emergent_set(g):
            spec = eigendecompose(g)
            found = []
            for i in range(spec.n):
                eff = project_product_state(g, spec.eigenvectors[:, i])
                weight = float(np.sum(np.abs(eff.coefficients) ** 2))
                if weight > 0.5:
                    found.append((spec.eigenvalues[i], eff.normalized()))
            return spec, found

        bit = qlbit_spec(10, 5, policy=EdgeBudgetFraction(0.2), seed=9)
        full = build_full_product(ProductSpec(qlbits=(bit, bit), mode="full"))
        cbit = qlbit_spec(24, 8, policy=CrossRegular(2), seed=4)
        contracted = build_contracted_product(
            ProductSpec(qlbits=(cbit, cbit), mode="contracted", n=24, d=8, seed=5)
        )
        for g in (full, contracted):
            spec, found = emergent_set(g)
            assert len(found) == 4
            top = found[0][1]
            bottom = found[3][1]
            assert abs(np.vdot(top, pats["++"])) ** 2 >= 0.9
            assert abs(np.vdot(bottom, pats["--"])) ** 2 >= 0.9
            # middle pair may be returned in an arbitrary degenerate basis:
            # project each pattern onto an orthonormal basis of its span
            middle, _ = np.linalg.qr(np.column_stack([found[1][1], found[2][1]]))
            assert np.linalg.norm(middle.conj().T @ pats["+-"]) ** 2 >= 0.9
            assert np.linalg.norm(middle.conj().T @ pats["-+"]) ** 2 >= 0.9

    def test_contracted_middle_pair_exactly_degenerate_with_regular_cross(self):
        cbit = qlbit_spec(24, 8, policy=CrossRegular(2), seed=4)
        g = build_contracted_product(
            ProductSpec(qlbits=(cbit, cbit), mode="contracted", n=24, d=8, seed=5)
        )
        spec = eigendecompose(g)
        assert abs(spec.eigenvalues[1] - spec.eigenvalues[2]) <= spec.degeneracy_window()

    def test_emergent_scale_full_2d_contracted_d(self):
        d, f = 8, 0.2
        bit = qlbit_spec(10, d, policy=EdgeBudgetFraction(f), seed=2)
        full_top = eigendecompose(
            build_full_product(ProductSpec(qlbits=(bit, bit), mode="full"))
        ).eigenvalues[0]
        cbit = qlbit_spec(20, d, policy=EdgeBudgetFraction(f), seed=2)
        contracted_top = eigendecompose(
            build_contracted_product(
                ProductSpec(qlbits=(cbit, cbit), mode="contracted", n=20, d=d, seed=1)
            )
        ).eigenvalues[0]
        assert 2 * d <= full_top <= 2 * d * (1 + 2 * f)
        assert d <= contracted_top <= d * (1 + 3 * f)


class TestDetuning:
    def _graph(self):
        bits = tuple(qlbit_spec(8, 3, seed=t) for t in range(2))
        return build_contracted_product(
            ProductSpec(qlbits=bits, mode="contracted", n=8, d=3, seed=6)
        )

    def test_alignment_detuning_targets_aligned_blocks_only(self):
        g = self._graph()
        shifted = apply_alignment_detuning(g, 5.0, 7.0)
        delta = shifted.diagonal - g.diagonal
        for label, verts in graph_to_json(g)["labels"].items():
            _, values = parse_block_label(label)
            if all(v == 1 for v in values):
                expected = 5.0
            elif all(v == 2 for v in values):
                expected = 7.0
            else:
                expected = 0.0
            assert np.allclose(delta[list(verts)], expected)

    def test_alignment_detuning_entangles_partially(self):
        cbit = qlbit_spec(32, 12, policy=CrossRegular(2), seed=1)
        g = build_contracted_product(
            ProductSpec(qlbits=(cbit, cbit), mode="contracted", n=32, d=12, seed=5)
        )
        detuned = apply_alignment_detuning(g, 4.0, 2.0)
        eff = project_product_state(detuned, eigendecompose(detuned).eigenvectors[:, 0])
        c = concurrence(density_from_state(eff.normalized()))
        assert 0.05 < c < 0.95

    def test_missing_labels(self):
        with pytest.raises(MissingLabelsError):
            apply_alignment_detuning(gen_cycle(4), 1.0, 2.0)


def test_bit_values_enumeration():
    assert [bit_values(k, 2) for k in range(4)] == [
        (1, 1),
        (2, 1),
        (1, 2),
        (2, 2),
    ]


def test_product_spec_validation():
    with pytest.raises(QllabError):
        ProductSpec(qlbits=(), mode="full")
    with pytest.raises(QllabError):
        ProductSpec(qlbits=(qlbit_spec(6, 3),), mode="sideways")
