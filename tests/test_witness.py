from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from qllab.errors import AmbiguousReadoutError
from qllab.graph import derive_seed, disjoint_union, graph_to_json
from qllab.qlbit import CrossRegular, QLBitSpec, build_qlbit
from qllab.qlproduct import ProductSpec, bit_values, build_contracted_product
from qllab.witness import WITNESS_BLOCKS, attach_witness, witness_readout


def small_product():
    bits = tuple(QLBitSpec(8, 3, policy=CrossRegular(1), seed=(t, "witness")) for t in range(2))
    spec = ProductSpec(qlbits=bits, mode="contracted", seed=4)
    return build_contracted_product(spec), spec


def coupling_edges(combined):
    """{(witness block, product block): [biases]} of the edges between them."""
    owner = {v: name for name, verts in graph_to_json(combined)["labels"].items() for v in verts}
    groups = {}
    for (u, v), bias in zip(combined.edges.tolist(), combined.bias):
        a, b = owner[u], owner[v]
        if (a in WITNESS_BLOCKS) != (b in WITNESS_BLOCKS):
            key = (a, b) if a in WITNESS_BLOCKS else (b, a)
            groups.setdefault(key, []).append(bias)
    return groups


@pytest.mark.parametrize("bit_index", [0, 1])
def test_witness_blocks_reach_only_matching_product_blocks(bit_index):
    g, spec = small_product()
    combined = attach_witness(spec, bit_index, 0.7, density=0.5, seed=3)
    groups = coupling_edges(combined)
    matching = {
        (w, p)
        for w in WITNESS_BLOCKS
        for k, p in enumerate(g.blocks)
        if bit_values(k, spec.q)[bit_index] == int(w[1])
    }
    assert set(groups) == matching
    assert all(bias == 0.7 for biases in groups.values() for bias in biases)


@pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 1.0])
def test_each_block_pair_gets_rounded_density_edges(density):
    g, spec = small_product()
    combined = attach_witness(spec, 0, 1.0, density=density, seed=5)
    counts = Counter({key: len(biases) for key, biases in coupling_edges(combined).items()})
    for w in WITNESS_BLOCKS:
        for p, verts in graph_to_json(g)["labels"].items():
            if bit_values(g.blocks.index(p), spec.q)[0] == int(w[1]):
                assert counts[w, p] == round(density * len(verts))


def test_strength_zero_is_the_plain_union():
    g, spec = small_product()
    seed = 9
    combined = attach_witness(spec, 1, 0.0, density=0.5, seed=seed)
    witness_bit = replace(
        spec.qlbits[1], connect_bias=1.0, red_bias=1.0, blue_bias=1.0, seed=derive_seed(seed, "witness")
    )
    witness = build_qlbit(witness_bit, block_names=WITNESS_BLOCKS)
    assert graph_to_json(combined) == graph_to_json(disjoint_union(g, witness))


def block_edges(g, name):
    """The edge set of block `name` of g, in its own vertex numbering."""
    verts = np.flatnonzero(g.block_of == g.blocks.index(name))
    inside = np.isin(g.edges, verts).all(axis=1)
    return {tuple(e) for e in (g.edges[inside] - verts[0]).tolist()}


@pytest.mark.parametrize("bit_index", [0, 1])
def test_a_full_product_witness_draws_fresh_blocks(bit_index):
    # the witness is a fresh copy of the target bit: none of its blocks is
    # one of the target bit's own, which the full product carries
    bits = tuple(QLBitSpec(8, 3, policy=CrossRegular(1), seed=t) for t in range(2))
    spec = ProductSpec(qlbits=bits, mode="full", seed=4)
    combined = attach_witness(spec, bit_index, 1.0, seed=3)
    target = build_qlbit(spec.qlbits[bit_index])
    for w in WITNESS_BLOCKS:
        for a in target.blocks:
            assert block_edges(combined, w) != block_edges(target, a)


def prepared(preparation, seed):
    """A two-bit contracted product spec whose bit 0 carries the given phase."""
    bits = [QLBitSpec(30, 6, policy=CrossRegular(1), seed=(seed, t)) for t in range(2)]
    bits[0] = replace(bits[0], connect_bias=complex(1 if preparation == "plus" else -1))
    return ProductSpec(qlbits=tuple(bits), mode="contracted", seed=seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("preparation, verdict", [("plus", "same"), ("minus", "inverted")])
def test_strong_coupling_reads_the_prepared_phase(preparation, verdict, seed):
    spec = prepared(preparation, seed)
    combined = attach_witness(spec, 0, 2.0, seed=seed)
    assert witness_readout(combined) == verdict


def test_weak_minus_coupling_is_ambiguous():
    # At s = 0.25 the top eigenvector of the combined graph has almost no
    # weight on the witness blocks: both projections fall below
    # READOUT_THRESHOLD.
    spec = prepared("minus", 0)
    combined = attach_witness(spec, 0, 0.25, seed=0)
    with pytest.raises(AmbiguousReadoutError):
        witness_readout(combined)
