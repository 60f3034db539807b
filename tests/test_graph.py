import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qllab.graph
from qllab.errors import InfeasibleDegreeError, QllabError
from qllab.graph import (
    BiasedGraph,
    GraphGenSpec,
    add_diagonal_disorder,
    block_basis,
    build_graph,
    delete_random_edges,
    disjoint_union,
    gen_bipartite_d_regular,
    gen_complete,
    gen_cycle,
    gen_d_regular_random,
    graph_to_json,
    project_blocks,
    two_lift,
)
from qllab.qlbit import (
    BLOCH_PROJECTIONS,
    CrossRegular,
    EdgeBudgetFraction,
    PairProbability,
    QLBitSpec,
    apply_bias_topology,
    build_qlbit,
    build_regular_qlbit,
)
from qllab.qlproduct import (
    ProductSpec,
    build_contracted_product,
    build_full_product,
    cartesian_product,
)
from qllab.spectral import eigendecompose
from qllab.witness import attach_witness


def hermiticity_defect(g):
    a = g.adjacency()
    return np.abs(a - a.T.conj()).max()


class TestBiasedGraph:
    def test_from_edges_normalizes_orientation(self):
        g = BiasedGraph.from_edges(3, [(2, 0), (1, 2)], [1j, 1.0])
        assert g.edges.tolist() == [[0, 2], [1, 2]]
        assert g.bias.tolist() == [-1j, 1.0]  # conjugated on reversal

    def test_rejects_loops_and_duplicates(self):
        with pytest.raises(QllabError):
            BiasedGraph.from_edges(3, [(1, 1)])
        with pytest.raises(QllabError):
            BiasedGraph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(QllabError):
            BiasedGraph.from_edges(2, [(0, 5)])
        with pytest.raises(QllabError):
            BiasedGraph.from_edges(2, [(0, 1)], [0.0])

    def test_adjacency_is_exactly_hermitian(self):
        g = BiasedGraph.from_edges(
            4, [(0, 1), (1, 2), (0, 3)], [1j, -1.0, np.exp(1j * 0.7)], diagonal=[0.1, 0, -2.0, 0]
        )
        assert hermiticity_defect(g) == 0.0

    @pytest.mark.parametrize("kind", ["real", "complex", "disordered"])
    def test_adjacency_into_out_equals_a_fresh_build(self, kind):
        g = gen_d_regular_random(12, 4, seed=2)
        if kind == "complex":
            g = replace(g, bias=np.exp(1j * np.arange(g.num_edges)))
        elif kind == "disordered":
            g = add_diagonal_disorder(g, 1.0, seed=2)
        fresh = g.adjacency()
        out = np.full_like(fresh, 7.0)  # stale entries must all be cleared
        assert g.adjacency(out=out) is out
        assert np.array_equal(out, fresh)

    def test_adjacency_rejects_an_unfit_out(self):
        g = gen_cycle(5)
        read_only = np.zeros((5, 5))
        read_only.flags.writeable = False
        for out in (
            np.zeros((5, 4)),
            np.zeros((5, 5), dtype=complex),
            np.zeros((5, 5), order="F")[:, ::-1],
            read_only,
            np.zeros((5, 5)).tolist(),
        ):
            with pytest.raises(QllabError):
                g.adjacency(out=out)
        with pytest.raises(QllabError):  # a complex graph needs a complex out
            replace(g, bias=1j * g.bias).adjacency(out=np.zeros((5, 5)))

    def test_label_partition_validated(self):
        with pytest.raises(QllabError):  # vertex 2 has no block
            BiasedGraph.from_edges(3, [(0, 1)], blocks=("a", "b"), block_of=[0, 1])
        with pytest.raises(QllabError):  # vertex 2 is in an unnamed block
            BiasedGraph.from_edges(3, [(0, 1)], blocks=("a",), block_of=[0, 0, 1])
        g = BiasedGraph.from_edges(3, [(0, 1)], blocks=("a", "b"), block_of=[0, 0, 1])
        assert set(graph_to_json(g)["labels"]) == {"a", "b"}

    @pytest.mark.parametrize(
        "blocks, block_of",
        [
            (("a", "a"), [0, 0, 1]),  # a repeated name
            (("a", "b"), [0, 1, 1, 0]),  # block_of of the wrong length
            (("a", "b"), [0, 1, 2]),  # an index past the last block
            (("a", "b"), [0, -1, 1]),  # a negative index
            (("a", "b"), None),  # blocks without block_of
            (None, [0, 0, 1]),  # block_of without blocks
            (("a1", "a2"), [0, 0, 0]),  # a name no vertex maps to
        ],
    )
    def test_partition_validator_rejects(self, blocks, block_of):
        with pytest.raises(QllabError):
            BiasedGraph.from_edges(3, [(0, 1)], blocks=blocks, block_of=block_of)

    def test_block_arrays_are_read_only_and_shared(self):
        block_of = np.array([0, 0, 1])
        g = BiasedGraph.from_edges(3, [(0, 1)], blocks=["a", "b"], block_of=block_of)
        block_of[0] = 1
        assert g.blocks == ("a", "b") and g.block_of.tolist() == [0, 0, 1]
        with pytest.raises(ValueError):
            g.block_of[0] = 1
        assert add_diagonal_disorder(g, 0.5, seed=1).block_of is g.block_of

    def test_equality_is_identity_and_graphs_hash(self):
        g, h = gen_cycle(4), gen_cycle(4)
        assert g == g
        assert g != h
        assert graph_to_json(g) == graph_to_json(h)  # contents compare here
        assert len({g, h, g}) == 2
        assert {g: 1}[g] == 1


class TestDRegularRandom:
    def test_k4_is_forced(self):
        for seed in (0, 7, 123):
            g = gen_d_regular_random(4, 3, seed)
            assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_paper_scale_edge_count_and_deletion(self):
        g = gen_d_regular_random(12, 8, seed=5)
        assert g.num_edges == 48
        thinned = delete_random_edges(g, 4 / 48, seed=9)
        assert thinned.num_edges == 44

    def test_top_eigenvalue_is_degree(self):
        g = gen_d_regular_random(12, 8, seed=3)
        assert abs(eigendecompose(g).eigenvalues[0] - 8.0) <= 1e-9

    @pytest.mark.parametrize("n,d", [(10, 3), (12, 8), (11, 10), (50, 10), (9, 4)])
    def test_regularity_scan(self, n, d):
        g = gen_d_regular_random(n, d, seed=2)
        assert (g.degrees() == d).all()
        assert g.num_edges == n * d // 2

    def test_infeasible_degrees(self):
        with pytest.raises(InfeasibleDegreeError):
            gen_d_regular_random(5, 3, 0)  # odd n*d
        with pytest.raises(InfeasibleDegreeError):
            gen_d_regular_random(4, 4, 0)  # d >= n
        with pytest.raises(InfeasibleDegreeError):
            gen_d_regular_random(4, 0, 0)

    def test_determinism(self):
        a = gen_d_regular_random(20, 5, seed=11)
        b = gen_d_regular_random(20, 5, seed=11)
        c = gen_d_regular_random(20, 5, seed=12)
        assert np.array_equal(a.edges, b.edges) and np.array_equal(a.bias, b.bias)
        assert not np.array_equal(a.edges, c.edges)


class TestOtherGenerators:
    def test_cycle_spectra(self):
        eig5 = eigendecompose(gen_cycle(5)).eigenvalues
        exact = np.sort([2 * np.cos(2 * np.pi * k / 5) for k in range(5)])[::-1]
        assert np.allclose(eig5, exact, atol=1e-9)
        assert abs(eig5[0] - 2.0) <= 1e-12
        assert abs(eig5[1] - 0.618) <= 5e-3
        eig3 = eigendecompose(gen_cycle(3)).eigenvalues
        assert np.allclose(eig3, [2, -1, -1], atol=1e-9)
        with pytest.raises(InfeasibleDegreeError):
            gen_cycle(2)

    def test_complete(self):
        eig = eigendecompose(gen_complete(4)).eigenvalues
        assert np.allclose(eig, [3, -1, -1, -1], atol=1e-9)

    def test_bipartite_complete_case(self):
        g = gen_bipartite_d_regular(3, 3, seed=0)
        eig = eigendecompose(g).eigenvalues
        assert abs(eig[0] - 3) <= 1e-9 and abs(eig[-1] + 3) <= 1e-9

    def test_bipartite_structure_and_spectrum(self):
        g = gen_bipartite_d_regular(8, 4, seed=1)
        for u, v in g.edges:
            assert u < 8 <= v  # every edge crosses the bipartition
        assert (g.degrees() == 4).all()
        spec = eigendecompose(g)
        assert abs(spec.eigenvalues[0] - 4) <= 1e-9
        assert abs(spec.eigenvalues[-1] + 4) <= 1e-9
        top = np.abs(spec.eigenvectors[:, 0])
        assert np.allclose(top, 1 / np.sqrt(16), atol=1e-8)

    def test_bipartite_infeasible(self):
        with pytest.raises(InfeasibleDegreeError):
            gen_bipartite_d_regular(3, 4, 0)


class TestTwoLift:
    def test_k4_lift_shape(self):
        lift = two_lift(gen_complete(4), seed=3)
        assert lift.n == 8
        assert lift.num_edges == 12
        assert (lift.degrees() == 3).all()

    def test_spectrum_contains_base_spectrum(self):
        base = gen_d_regular_random(10, 4, seed=8)
        lift = two_lift(base, seed=9)
        old = np.sort(eigendecompose(base).eigenvalues)
        lifted = np.sort(eigendecompose(lift).eigenvalues)
        # greedy sub-multiset match
        i = 0
        for val in lifted:
            if i < len(old) and abs(val - old[i]) <= 1e-8:
                i += 1
        assert i == len(old)

    def test_degree_multiset_doubles(self):
        base = gen_cycle(7)
        lift = two_lift(base, seed=1)
        assert sorted(lift.degrees()) == sorted(np.repeat(base.degrees(), 2))

    def test_complex_bias_lift_stays_hermitian(self):
        base = BiasedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [1j, np.exp(0.3j), 1.0])
        lift = two_lift(base, seed=2)
        assert hermiticity_defect(lift) == 0.0


class TestMutations:
    def test_delete_fraction_zero_and_one(self):
        g = gen_d_regular_random(10, 3, seed=5)
        same = delete_random_edges(g, 0.0, seed=1)
        assert np.array_equal(same.edges, g.edges) and np.array_equal(same.bias, g.bias)
        empty = delete_random_edges(g, 1.0, seed=1)
        assert empty.num_edges == 0
        assert np.allclose(eigendecompose(empty).eigenvalues, 0.0)

    def test_heavy_thinning_average_degree(self):
        g = gen_d_regular_random(400, 80, seed=0)
        thinned = delete_random_edges(g, 1 - 3 / 16, seed=0)
        assert 2 * thinned.num_edges / thinned.n == pytest.approx(15.0, abs=1e-12)

    def test_disorder_sigma_zero_identity(self):
        g = gen_cycle(6)
        out = add_diagonal_disorder(g, 0.0, seed=3)
        assert np.array_equal(out.diagonal, g.diagonal)

    def test_disorder_sample_statistics(self):
        g = gen_d_regular_random(400, 4, seed=1)
        out = add_diagonal_disorder(g, 2.0, seed=2)
        draws = out.diagonal - g.diagonal
        assert 1.7 <= draws.std(ddof=1) <= 2.3
        assert hermiticity_defect(out) == 0.0


class TestSerialization:
    def test_json_schema(self):
        g = gen_cycle(4)
        doc = graph_to_json(g)
        assert set(doc) == {"n", "edges", "diagonal"}
        assert all(len(e) == 4 for e in doc["edges"])
        # document is valid JSON
        assert json.loads(json.dumps(doc))["edges"][0] == [0, 1, 1.0, 0.0]

    def test_spec_build_dispatch(self):
        spec = GraphGenSpec("two_lift", seed=1, base=GraphGenSpec("complete", n=4))
        g = build_graph(spec)
        assert g.n == 8


K4 = GraphGenSpec("complete", n=4)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"kind": "cycle", "n": 6, "d": 2}, "d: a cycle graph takes no d"),
        ({"kind": "complete", "n": 4, "d": 3}, "d: a complete graph takes no d"),
        ({"kind": "two_lift", "n": 8, "base": K4}, "n: a two_lift graph takes no n"),
        ({"kind": "two_lift", "d": 3, "base": K4}, "d: a two_lift graph takes no d"),
        ({"kind": "d_regular_random", "n": 10, "d": 3, "base": K4}, "base: a d_regular_random graph takes no base"),
        ({"kind": "bipartite_d_regular", "n": 5, "d": 2, "base": K4}, "base: a bipartite_d_regular graph takes no base"),
        ({"kind": "two_lift"}, "base: a two_lift graph needs base"),
        ({"kind": "cycle"}, "n: a cycle graph needs n"),
        ({"kind": "bipartite_d_regular", "n": 5}, "d: a bipartite_d_regular graph needs d"),
        ({"kind": ["cycle"], "n": 6}, "kind: unknown graph kind"),
    ],
)
def test_graph_spec_sets_exactly_the_fields_its_kind_reads(fields, message):
    with pytest.raises(QllabError, match=f"^{re.escape(message)}"):
        GraphGenSpec(**fields)


@pytest.mark.parametrize("kind", ["cycle", "complete"])
def test_graph_spec_seed_of_a_fixed_kind_draws_nothing(kind):
    # every kind takes a seed; only the random kinds draw from it
    first, second = (graph_to_json(build_graph(GraphGenSpec(kind, n=5, seed=s))) for s in (1, 2))
    assert first == second


def test_disjoint_union_offsets_and_labels():
    a = replace(gen_complete(4), blocks=("a1", "a2"), block_of=[0, 0, 1, 1])
    b = replace(gen_complete(3), blocks=("x1", "x2"), block_of=[0, 1, 1])
    u = disjoint_union(a, b)
    assert u.n == 7
    assert u.num_edges == 9
    assert graph_to_json(u)["labels"]["x1"] == [4]
    with pytest.raises(QllabError):
        disjoint_union(a, a)


class TestReadOnlyArrays:
    def test_writes_raise(self):
        g = add_diagonal_disorder(gen_cycle(5), 0.3, seed=1)
        for array in (g.edges, g.bias, g.diagonal):
            with pytest.raises(ValueError):
                array[0] = 7

    def test_writable_input_is_copied(self):
        diagonal = np.zeros(3)
        g = BiasedGraph.from_edges(3, [(0, 1)], diagonal=diagonal)
        diagonal[0] = 5.0
        assert g.diagonal[0] == 0.0

    def test_derived_graphs_share_arrays(self):
        g = gen_d_regular_random(12, 3, seed=2)
        disordered = add_diagonal_disorder(g, 0.5, seed=3)
        assert disordered.edges is g.edges and disordered.bias is g.bias


# ----------------------------------------------------------------------
# Golden digests: SHA-256 of the sorted-key JSON of one graph per construction,
# recorded with the edge-dict implementation that the arrays replaced.
# ----------------------------------------------------------------------


def complex_k4():
    bias = np.exp(1j * 0.3 * np.arange(1, 7))
    return BiasedGraph.from_edges(4, gen_complete(4).edges, bias)


def mixed_bits(q):
    policies = (EdgeBudgetFraction(0.25), CrossRegular(1), PairProbability(0.2))
    return tuple(
        QLBitSpec(
            6,
            3,
            policy=policies[t],
            connect_bias=(1, 1j, -1)[t],
            red_bias=-1.0 if t == 1 else 1.0,
            seed=(t, "golden"),
        )
        for t in range(q)
    )


def witness_attached():
    spec = ProductSpec(qlbits=mixed_bits(2), mode="contracted", seed=12)
    return attach_witness(spec, 1, 0.7, density=0.5, seed=15)


GOLDEN = {
    "d_regular_sparse": (
        lambda: gen_d_regular_random(30, 4, seed=1),
        "3e23c5f52f3eb8c64017135e40f978dd5fadcc547c81dab75f373232fb4876bc",
    ),
    "d_regular_dense": (
        lambda: gen_d_regular_random(12, 8, seed=2),
        "365f25e103fd8fa879c0e0b819821e11611fe347ef38f9668ee6543f71560708",
    ),
    "bipartite": (
        lambda: gen_bipartite_d_regular(8, 3, seed=3),
        "414b77b4659319d3903c16b0efa86233b57991989cf38fbbb978b899549f43a2",
    ),
    "two_lift_complex": (
        lambda: two_lift(complex_k4(), seed=4),
        "1483b9329fea44e586d170735e093acd9f46727e8b6529893af8524348d5ce5f",
    ),
    "delete_random_edges": (
        lambda: delete_random_edges(gen_d_regular_random(20, 6, seed=5), 0.3, seed=6),
        "6c872566c2f1f35531ebac3e7d81144c3210e05a982822c2883816eb453a3319",
    ),
    "diagonal_disorder": (
        lambda: add_diagonal_disorder(gen_d_regular_random(10, 3, seed=7), 0.5, seed=8),
        "9aedeb8431d3adacb4c0cae7dd2314818be5198cb7532146e891f3a0ad47ba50",
    ),
    "budget_qlbit_bias_i": (
        lambda: build_qlbit(
            QLBitSpec(12, 4, policy=EdgeBudgetFraction(0.2), connect_bias=1j, seed=9)
        ),
        "b57503d68239537e9a5ec8f975ea6eeaf8350fbeeab1f18905219037d0f08780",
    ),
    # re-recorded when a bit's one seed drew its blocks: the regular bit's
    # blocks are drawn from derive_seed(seed, "sub1") and "sub2", as every
    # other bit's, where they used "blue" and "red"
    "bias_topology_y_minus": (
        lambda: apply_bias_topology(
            build_regular_qlbit(10, 4, cross_degree=1, seed=10), BLOCH_PROJECTIONS["y-"]
        ),
        "7a4d76a67373814536b3cc000d7a022843e68b21cff34e3be78cf0b4e74ae151",
    ),
    "contracted_q3": (
        lambda: build_contracted_product(
            ProductSpec(qlbits=mixed_bits(3), mode="contracted", seed=11)
        ),
        "63081d4622bc1bab126498ed0202b57c3f98ac2684fdf3619375e875606b99f6",
    ),
    "full_q2": (
        lambda: build_full_product(
            ProductSpec(
                qlbits=(
                    QLBitSpec(5, 2, connect_bias=1j, seed=13),
                    QLBitSpec(4, 3, policy=PairProbability(0.5), blue_bias=-1.0, seed=14),
                ),
                mode="full",
            )
        ),
        "cf0e8db41e8cca81b0e798b74b750aad1c969ead51db36b357945ecca601f1eb",
    ),
    # re-recorded when a bit's one seed drew its blocks: the witness's own
    # seed now draws fresh blocks, where it kept its target bit's
    "witness_attached": (
        witness_attached,
        "546ac96dc956c84d4920243d0516291219894dd8a6089c77b3f7887f9f58dcbb",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_graph_digest(name):
    make, expected = GOLDEN[name]
    text = json.dumps(graph_to_json(make()), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == expected


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------


@st.composite
def edge_lists(draw, max_n=9):
    """(n, canonical pairs, nonzero biases) of a random biased graph."""
    n = draw(st.integers(1, max_n))
    upper = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = sorted(draw(st.lists(st.sampled_from(upper), unique=True))) if upper else []
    m = len(pairs)
    size = st.floats(0.1, 10.0)
    phase = st.floats(0.0, 2.0 * np.pi)
    bias = np.array(draw(st.lists(size, min_size=m, max_size=m))) * np.exp(
        1j * np.array(draw(st.lists(phase, min_size=m, max_size=m)))
    )
    return n, np.array(pairs, dtype=np.int64).reshape(-1, 2), bias


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(edge_lists(), st.data())
def test_from_edges_ignores_order_and_orientation(graph, data):
    n, pairs, bias = graph
    canonical = BiasedGraph.from_edges(n, pairs, bias)
    assert np.array_equal(canonical.edges, pairs)
    assert np.array_equal(canonical.bias, bias)
    m = len(pairs)
    order = np.array(data.draw(st.permutations(range(m))), dtype=np.int64)
    flip = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    shuffled = np.where(flip[:, None], pairs[order][:, ::-1], pairs[order])
    again = BiasedGraph.from_edges(n, shuffled, np.where(flip, bias[order].conj(), bias[order]))
    assert np.array_equal(again.edges, canonical.edges)
    assert np.array_equal(again.bias, canonical.bias)


FAULTS = ("loop", "duplicate", "reversed-duplicate", "out-of-range", "zero-bias", "block-below", "block-above")


@SETTINGS
@given(edge_lists(), st.sampled_from(FAULTS), st.booleans(), st.data())
def test_from_edges_names_each_fault_in_sorted_and_unsorted_input(graph, fault, shuffle, data):
    # one fault added to a canonical edge list, which stays in canonical row
    # order or is shuffled with random rows reversed (bias conjugated): the
    # message is the same either way, naming the pair in its canonical
    # orientation (an out-of-range pair as given)
    n, pairs, bias = graph
    m = len(pairs)
    rows = [tuple(p) for p in pairs.tolist()]
    values = list(bias)
    block_of = np.arange(n) % 2
    blocks = ("a", "b") if n > 1 else ("a",)
    extra = None  # (pair, bias) of an added row
    if fault in ("duplicate", "reversed-duplicate", "zero-bias"):
        assume(m > 0)
        i = data.draw(st.integers(0, m - 1))
        u, v = rows[i]
        message = f"duplicate edge ({u}, {v})"
    if fault == "loop":
        w = data.draw(st.integers(0, n - 1))
        extra, message = ((w, w), 1.0), f"self loop at vertex {w}"
    elif fault == "duplicate":
        extra = ((u, v), values[i])
    elif fault == "reversed-duplicate":
        extra = ((v, u), np.conj(values[i]))
    elif fault == "out-of-range":
        w = data.draw(st.integers(0, n - 1))
        extra = (data.draw(st.sampled_from([(w, n), (-1, w)])), 1.0)
    elif fault == "zero-bias":
        values[i] = 0.0
        message = f"zero bias on edge ({u}, {v})"
    else:
        block_of[data.draw(st.integers(0, n - 1))] = -1 if fault == "block-below" else len(blocks)
        message = f"block_of must hold one index in [0, {len(blocks)}) per vertex"
    if extra is not None:
        rows.append(extra[0])
        values.append(extra[1])
    # canonical row order, an added row after its equal; a loop or an
    # out-of-range pair sorts by its key
    order = sorted(range(len(rows)), key=lambda k: (min(rows[k]), max(rows[k])))
    if shuffle:
        order = data.draw(st.permutations(order))
    flip = [shuffle and data.draw(st.booleans()) for _ in order]
    given_rows = [rows[k][::-1] if f else rows[k] for k, f in zip(order, flip)]
    given_bias = [np.conj(values[k]) if f else values[k] for k, f in zip(order, flip)]
    if fault == "out-of-range":  # the message names the pair as given
        bad_given = given_rows[order.index(len(rows) - 1)]
        message = f"edge ({bad_given[0]}, {bad_given[1]}) out of range for n={n}"
    with pytest.raises(QllabError, match="^" + re.escape(message) + "$"):
        BiasedGraph.from_edges(
            n, np.array(given_rows, dtype=np.int64).reshape(-1, 2), np.array(given_bias, dtype=complex),
            blocks=blocks, block_of=block_of,
        )


@SETTINGS
@given(edge_lists(), st.lists(st.floats(-5.0, 5.0), min_size=9, max_size=9))
def test_adjacency_exactly_hermitian_and_degree_sum(graph, diagonal):
    n, pairs, bias = graph
    g = BiasedGraph.from_edges(n, pairs, bias, diagonal=diagonal[:n])
    a = g.adjacency()
    assert np.array_equal(a, a.conj().T)
    assert g.degrees().sum() == 2 * g.num_edges


@SETTINGS
@given(st.integers(2, 16), st.integers(1, 15), st.integers(0, 2**32))
def test_d_regular_generator_is_regular_and_seed_deterministic(n, d, seed):
    assume(d < n and n * d % 2 == 0)
    g = gen_d_regular_random(n, d, seed)
    assert (g.degrees() == d).all()
    again = gen_d_regular_random(n, d, seed)
    assert np.array_equal(g.edges, again.edges) and np.array_equal(g.bias, again.bias)
    lift = two_lift(g, seed)
    assert (lift.degrees() == d).all()
    assert np.array_equal(lift.edges, two_lift(g, seed).edges)


@SETTINGS
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32))
def test_bipartite_generator_is_regular_and_seed_deterministic(n, d, seed):
    assume(d <= n)
    g = gen_bipartite_d_regular(n, d, seed)
    assert (g.degrees() == d).all()
    assert np.array_equal(g.edges, gen_bipartite_d_regular(n, d, seed).edges)


def numpy_scalar_pairing_attempt(n, d, rng):
    """Oracle: the configuration-model attempt iterating numpy scalars."""
    edges = set()
    stubs = np.repeat(np.arange(n), d)
    rounds = 0
    while stubs.size:
        rounds += 1
        if rounds > qllab.graph._MAX_REPAIR_ROUNDS:
            return None
        rng.shuffle(stubs)
        leftover = []
        progressed = False
        for a, b in zip(stubs[0::2], stubs[1::2]):
            u, v = (int(a), int(b)) if a < b else (int(b), int(a))
            if u == v or (u, v) in edges:
                leftover.append(u)
                leftover.append(v)
            else:
                edges.add((u, v))
                progressed = True
        if leftover and not progressed:
            values = sorted(set(leftover))
            ok = any(
                (values[i], values[j]) not in edges
                for i in range(len(values))
                for j in range(i + 1, len(values))
            )
            if not ok:
                return None
        stubs = np.array(leftover, dtype=int)
    return edges


def numpy_scalar_bipartite_attempt(n, k, rng):
    """Oracle: the bipartite pairing attempt iterating numpy scalars."""
    pairs = set()
    left = np.repeat(np.arange(n), k)
    right = np.repeat(np.arange(n), k)
    rounds = 0
    while left.size:
        rounds += 1
        if rounds > qllab.graph._MAX_REPAIR_ROUNDS:
            return None
        rng.shuffle(left)
        rng.shuffle(right)
        next_left, next_right = [], []
        progressed = False
        for a, b in zip(left, right):
            pair = (int(a), int(b))
            if pair in pairs:
                next_left.append(pair[0])
                next_right.append(pair[1])
            else:
                pairs.add(pair)
                progressed = True
        if next_left and not progressed:
            ls, rs = sorted(set(next_left)), sorted(set(next_right))
            if not any((a, b) not in pairs for a in ls for b in rs):
                return None
        left = np.array(next_left, dtype=int)
        right = np.array(next_right, dtype=int)
    return pairs


def _sampled_with(attempt_name, oracle, sample, *args):
    """sample(*args, rng) with the library's attempt, then with the oracle's.

    Returns both sorted edge-key arrays, both final generator states, and
    how many attempts the oracle ran (more than one means a restart).
    """
    seed = args[-1]
    rng = np.random.default_rng(seed)
    got = sample(*args[:-1], rng)
    attempts = []

    def counted(*a):
        # the oracle's (u, v) pairs as the keys u * n + v the samplers sort
        attempts.append(a)
        pairs = oracle(*a)
        return None if pairs is None else {u * a[0] + v for u, v in pairs}

    oracle_rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qllab.graph, attempt_name, counted)
        want = sample(*args[:-1], oracle_rng)
    return got, want, rng.bit_generator.state, oracle_rng.bit_generator.state, len(attempts)


@SETTINGS
@given(st.integers(2, 30), st.integers(1, 29), st.integers(0, 2**32))
def test_regular_sampler_keeps_the_numpy_scalar_stream(n, d, seed):
    # d > (n - 1) / 2 samples the complement; small n restart often
    assume(d < n and n * d % 2 == 0)
    got, want, state, oracle_state, attempts = _sampled_with(
        "_pairing_attempt", numpy_scalar_pairing_attempt, qllab.graph._sample_regular_pairs, n, d, seed
    )
    assert attempts >= 1  # the oracle ran
    assert np.array_equal(got, want)
    assert state == oracle_state


@SETTINGS
@given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**32))
def test_bipartite_sampler_keeps_the_numpy_scalar_stream(n, k, seed):
    assume(k <= n)
    got, want, state, oracle_state, attempts = _sampled_with(
        "_bipartite_attempt", numpy_scalar_bipartite_attempt, qllab.graph.sample_biregular_pairs, n, k, seed
    )
    assert attempts >= 1
    assert np.array_equal(got, want)
    assert state == oracle_state


@pytest.mark.parametrize(
    "sample, attempt, oracle, args",
    [
        (qllab.graph._sample_regular_pairs, "_pairing_attempt", numpy_scalar_pairing_attempt, (8, 3)),
        (qllab.graph._sample_regular_pairs, "_pairing_attempt", numpy_scalar_pairing_attempt, (12, 7)),
        (qllab.graph.sample_biregular_pairs, "_bipartite_attempt", numpy_scalar_bipartite_attempt, (6, 3)),
        (qllab.graph.sample_biregular_pairs, "_bipartite_attempt", numpy_scalar_bipartite_attempt, (8, 5)),
    ],
    ids=["regular-sparse", "regular-complement", "bipartite-sparse", "bipartite-complement"],
)
def test_sampler_streams_agree_through_restarts(sample, attempt, oracle, args):
    # seeds 0..39 of these shapes include runs that restart at least once
    restarts = 0
    for seed in range(40):
        got, want, state, oracle_state, attempts = _sampled_with(attempt, oracle, sample, *args, seed)
        assert np.array_equal(got, want)
        assert state == oracle_state
        restarts += attempts > 1
    assert restarts > 0


@pytest.mark.parametrize(
    "sample, attempt, oracle, args, restarts",
    [
        (qllab.graph._sample_regular_pairs, "_pairing_attempt", numpy_scalar_pairing_attempt, (256, 6), True),
        (qllab.graph._sample_regular_pairs, "_pairing_attempt", numpy_scalar_pairing_attempt, (512, 6), True),
        (qllab.graph._sample_regular_pairs, "_pairing_attempt", numpy_scalar_pairing_attempt, (30, 6), True),
        (qllab.graph.sample_biregular_pairs, "_bipartite_attempt", numpy_scalar_bipartite_attempt, (40, 1), False),
    ],
    ids=["sweep-256-6", "spectrum-512-6", "restart-heavy-30-6", "bipartite-blocks-40-1"],
)
def test_sampler_streams_agree_at_workload_sizes(sample, attempt, oracle, args, restarts):
    # the sizes the experiments sample, beyond the n <= 30 hypothesis draws;
    # seeds 0..9 of each regular shape include runs that restart
    restarted = 0
    for seed in range(10):
        got, want, state, oracle_state, attempts = _sampled_with(attempt, oracle, sample, *args, seed)
        assert np.array_equal(got, want)
        assert state == oracle_state
        restarted += attempts > 1
    assert (restarted > 0) == restarts


@SETTINGS
@given(
    edge_lists(),
    st.sampled_from(["complex", "real", "disordered", "disconnected", "edgeless"]),
    st.integers(0, 3),
    st.booleans(),
    st.integers(0, 2**32),
)
@example((1, np.empty((0, 2), dtype=np.int64), np.empty(0)), "disordered", 0, False, 0)
@example((1, np.empty((0, 2), dtype=np.int64), np.empty(0)), "edgeless", 2, True, 0)
def test_operator_is_the_adjacency(graph, kind, columns, complex_x, seed):
    # columns 0 applies the operator to a vector, else to an (n, columns) array
    n, pairs, bias = graph
    rng = np.random.default_rng(seed)
    if kind == "real":
        bias = np.where(bias.real < 0, -1.0, 1.0) * np.abs(bias)
    elif kind == "edgeless":
        pairs, bias = pairs[:0], bias[:0]
    diagonal = rng.normal(0.0, 2.0, n) if kind == "disordered" else None
    g = BiasedGraph.from_edges(n, pairs, bias, diagonal)
    if kind == "disconnected":
        g = disjoint_union(g, g)
    shape = (g.n, columns) if columns else (g.n,)
    x = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_x else 0)
    y = g.operator()(x)
    a = g.adjacency()
    assert y.shape == x.shape
    assert np.iscomplexobj(y) == (complex_x or bool(np.any(g.bias.imag)))
    scale = max(1.0, float(np.abs(a).sum(axis=1).max() * np.abs(x).max()))
    assert np.abs(y - a @ x).max() <= 1e-12 * scale


@SETTINGS
@given(edge_lists(max_n=6), edge_lists(max_n=6))
def test_cartesian_product_counts(first, second):
    g = BiasedGraph.from_edges(*first)
    h = BiasedGraph.from_edges(*second)
    p = cartesian_product(g, h)
    assert p.n == g.n * h.n
    assert p.num_edges == g.n * h.num_edges + h.n * g.num_edges
    assert (p.degrees() == np.add.outer(h.degrees(), g.degrees()).ravel()).all()


@st.composite
def labeled_graphs(draw, prefix, max_n=5):
    """A random biased graph with a random partition into blocks named
    prefix + digit, the names in random order."""
    n, pairs, bias = draw(edge_lists(max_n=max_n))
    k = draw(st.integers(1, n))
    rest = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    block_of = np.empty(n, dtype=np.int64)
    block_of[draw(st.permutations(range(n)))] = list(range(k)) + rest
    names = tuple(f"{prefix}{i}" for i in draw(st.permutations(range(k))))
    return BiasedGraph.from_edges(n, pairs, bias, blocks=names, block_of=block_of)


def labels(g):
    return graph_to_json(g)["labels"]


@SETTINGS
@given(labeled_graphs("a"), labeled_graphs("b"), st.integers(0, 2**32))
def test_composers_keep_the_label_dict_law(g, h, seed):
    # Oracle: the dict formulas each composer applied to name -> vertex lists
    # before partitions became arrays; block order is part of the law.
    gl, hl = labels(g), labels(h)
    product = {
        gname + hname: [x * g.n + u for x in hverts for u in gverts]
        for hname, hverts in hl.items()
        for gname, gverts in gl.items()
    }
    lift = {name: verts + [v + g.n for v in verts] for name, verts in gl.items()}
    union = {**gl, **{name: [v + g.n for v in verts] for name, verts in hl.items()}}
    assert list(labels(cartesian_product(g, h)).items()) == list(product.items())
    assert list(labels(two_lift(g, seed)).items()) == list(lift.items())
    assert list(labels(disjoint_union(g, h)).items()) == list(union.items())


@SETTINGS
@given(labeled_graphs("b", max_n=9), st.data())
def test_block_projection_matches_indicators_built_from_block_of(g, data):
    # any subset of the blocks, in any order, against a J built column by
    # column from block_of
    names = data.draw(st.lists(st.sampled_from(g.blocks), unique=True))
    j = np.zeros((g.n, len(names)))
    for col, name in enumerate(names):
        members = g.block_of == g.blocks.index(name)
        j[members, col] = 1 / np.sqrt(np.count_nonzero(members))
    assert np.abs(block_basis(g, names) - j).max(initial=0.0) <= 1e-15
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    w = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    w /= np.linalg.norm(w)
    c = np.array([np.vdot(j[:, col], w) for col in range(len(names))], dtype=complex)
    eff = project_blocks(g, names, w)
    assert np.abs(eff.coefficients - c).max(initial=0.0) <= 1e-12
    assert abs(eff.residual - np.linalg.norm(w - j @ c)) <= 1e-12
    assert abs(np.sum(np.abs(eff.coefficients) ** 2) + eff.residual**2 - 1.0) <= 1e-12
