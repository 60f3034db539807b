"""Witness QL bits: spatially separable read-out ports for product graphs.

A witness is a fresh copy of one constituent QL bit: the bit's spec with a
seed of its own, so its blocks and cross edges are drawn anew, prepared
with known (all-positive) biases so its own emergent state is |x1> + |x2>.
Its x1 block couples only to product blocks whose target-bit value is 1,
and x2 only to value-2 blocks.  After coupling, the relative sign of the
witness block amplitudes inside the emergent state of the combined graph
reveals whether the target bit's phase matches the witness ('same') or is
opposite ('inverted').
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import AmbiguousReadoutError, QllabError
from .graph import BiasedGraph, derive_seed, disjoint_union, rng_from
from .qlbit import build_qlbit, project_two_state
from .qlproduct import ProductSpec, bit_values, build_product
from .spectral import top_pair

READOUT_THRESHOLD = 0.05

WITNESS_BLOCKS = ("x1", "x2")


def attach_witness(
    spec: ProductSpec,
    bit_index: int,
    strength: float,
    density: float = 0.1,
    seed: int = 0,
):
    """Build the product of spec, so that it cannot disagree with the spec
    that picks its blocks, and couple a fresh witness QL bit to the
    like-labeled ones.

    Each witness block gains round(density * n_block) random edges of real
    magnitude `strength` to every product block whose target-bit value
    matches.  Returns the combined graph; the witness vertices follow the
    product's.
    """
    if not 0 <= bit_index < spec.q:
        raise IndexError(f"bit index {bit_index} out of range for q={spec.q}")
    if strength < 0:
        raise QllabError("coupling strength must be nonnegative")
    product = build_product(spec)
    bit = spec.qlbits[bit_index]
    witness_bit = replace(
        bit,
        connect_bias=1.0 + 0.0j,
        red_bias=1.0,
        blue_bias=1.0,
        seed=derive_seed(seed, "witness"),
    )
    witness = build_qlbit(witness_bit, block_names=WITNESS_BLOCKS)
    combined = disjoint_union(product, witness)
    if strength == 0:
        return combined

    pairs = [combined.edges]
    for side, wname in enumerate(WITNESS_BLOCKS, start=1):
        wverts = np.flatnonzero(witness.block_of == side - 1) + product.n
        for k, pname in enumerate(product.blocks):
            if bit_values(k, spec.q)[bit_index] != side:
                continue
            pverts = np.flatnonzero(product.block_of == k)
            n_block = len(pverts)
            count = int(round(density * n_block))
            count = min(count, len(wverts) * n_block)
            if count == 0:
                continue
            rng = rng_from(seed, "attach", wname, pname)
            picks = rng.choice(len(wverts) * n_block, size=count, replace=False)
            wi, pj = np.divmod(picks, n_block)
            pairs.append(np.stack([pverts[pj], wverts[wi]], axis=1))

    pairs = np.concatenate(pairs)
    bias = np.concatenate([combined.bias, np.full(len(pairs) - combined.num_edges, strength)])
    return BiasedGraph.from_edges(
        combined.n, pairs, bias, combined.diagonal, combined.blocks, combined.block_of
    )


def witness_readout(combined: BiasedGraph) -> str:
    """Read the target bit's phase off the witness blocks.

    Solves only the emergent (top) eigenpair of the combined graph with
    `top_pair`, which proves the pair by its residual and a bound on the
    top eigenvalue (falling back to the full solve when either fails),
    reads the amplitudes a1, a2 of the vector on the witness blocks x1, x2
    with `project_two_state`, and reports 'same' when they align in phase,
    'inverted' otherwise.  On a tied top level the vector is the
    projection of 1/sqrt(n) onto that level: one fixed member of it, where
    a full solve picked an arbitrary one.  The comparison uses
    Re(conj(a1) * a2), which is global-phase free and reduces to the sign
    product of the real parts for real states.
    """
    _, top = top_pair(combined)
    a1, a2 = project_two_state(combined, top, WITNESS_BLOCKS).coefficients
    if abs(a1) < READOUT_THRESHOLD and abs(a2) < READOUT_THRESHOLD:
        raise AmbiguousReadoutError(
            f"witness projections {abs(a1):.3g}, {abs(a2):.3g} below "
            f"{READOUT_THRESHOLD}"
        )
    return "same" if (a1.conjugate() * a2).real > 0 else "inverted"
