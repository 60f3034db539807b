"""Cartesian products of QL bits, contracted products, and multi-bit projections.

Basis convention: with q bits named a, b, c, ... block k of a product
carries the bit values `bit_values(k, q)`, the FIRST bit varying fastest:
a1b1, a2b1, a1b2, a2b2 for q = 2.  `bit_values` is the one home of that
order; the builders lay blocks out by it, and readers take a block's values
from its index, never from its label ("a1b2", per-bit names joined).
Vertex order inside a product follows the same rule: the index of (u, x)
in g [] h is x * |g| + u.

Full products are solved from their factors: `verify_spectrum_composition`
composes the eigensystem of f_1 [] ... [] f_q from the factor eigensystems
(Kronecker-sum eigenvalues, Kronecker-product eigenvectors), and the
`product` experiment neither diagonalizes the product's matrix nor forms
an N x N array on its N = n_1 ... n_q vertices.  The proof has three parts:
each factor passes the eigenpair gate of `spectral.check_eigenpairs`; the
Kronecker sum of the factor residuals, which bounds every composed
eigenpair's residual, passes the same gate; and a Freivalds check shows
that the built product's edge arrays act as the Kronecker sum of the
factors' dense matrices on two random vectors.  That last check is
probabilistic, with a fixed seed.  Only the leading eigenvectors the caller
reads are composed.  A `product` of two 24-vertex bits (N = 576) takes
about 7-10 ms, against 16 ms for a check of all N eigenpairs against the
dense A, and three such bits (N = 13,824, where A and W would each take
1.5 GB) about 110 ms with a 54 MB peak RSS (one x86 core, one BLAS thread).

A contracted product has one n-vertex d-regular block per basis label, in
the one shape (n, d) that all of its bits share; `ProductSpec` rejects bits
of another shape.  Contracted products of cross-regular bits have
equitable block partitions, so `product` solves their spectrum with
`eigenvalues` and reads their QL states off the block quotient
(`spectral.quotient_states`), ranked in that spectrum; other contracted
products go through `eigendecompose`.
`verify_contraction_law` checks a contracted product against its spec.

Every state the `product` experiment reports, on all three paths, goes
through `state_doc`, which puts it in the one phase of
`spectral.fixed_phase`: its first largest coefficient real and positive.
The quotient states already have that phase and keep their bits; the
full and non-equitable contracted paths would otherwise print the sign
LAPACK happened to give each eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import MissingLabelsError, NumericalError, QllabError
from .graph import BiasedGraph, derive_seed, gen_d_regular_random, project_blocks, rng_from
from .qlbit import CrossRegular, PairProbability, build_qlbit, sample_cross_pairs
from .spectral import EQUITABLE_TOL, RESIDUAL_TOL, Spectrum, eigendecompose, fixed_phase

BIT_NAMES = "abcdefgh"


# ----------------------------------------------------------------------
# Cartesian product
# ----------------------------------------------------------------------


def cartesian_product(g: BiasedGraph, h: BiasedGraph) -> BiasedGraph:
    """Graph Cartesian product g [] h.

    (u, x) ~ (v, y) iff u ~ v and x = y, or x ~ y and u = v, inheriting the
    contributing edge's bias.  Diagonals add; when both factors are labeled,
    blocks g.blocks[i] and h.blocks[j] combine into block g.blocks[i] +
    h.blocks[j], at index j * len(g.blocks) + i like the vertex order.
    """
    if g.n == 0 or h.n == 0:
        raise QllabError("product factors must be nonempty")
    gn = g.n
    # One copy of g per vertex x of h, offset by x * gn, and one copy of each
    # h edge (x, y) per vertex u of g, joining x * gn + u to y * gn + u.
    g_copies = g.edges[None, :, :] + (np.arange(h.n) * gn)[:, None, None]
    h_copies = h.edges[:, None, :] * gn + np.arange(gn)[None, :, None]
    pairs = np.concatenate([g_copies.reshape(-1, 2), h_copies.reshape(-1, 2)])
    bias = np.concatenate([np.tile(g.bias, h.n), np.repeat(h.bias, gn)])
    diagonal = np.add.outer(h.diagonal, g.diagonal).ravel()
    blocks = block_of = None
    if g.blocks is not None and h.blocks is not None:
        blocks = tuple(gname + hname for hname in h.blocks for gname in g.blocks)
        block_of = np.add.outer(h.block_of * len(g.blocks), g.block_of).ravel()
    return BiasedGraph.from_edges(g.n * h.n, pairs, bias, diagonal, blocks, block_of)


def verify_spectrum_composition(*factors, columns=None):
    """Solve f_1 [] ... [] f_q from its factors and prove the composition law.

    Each factor is diagonalized on its own; the product is built only for
    its labels and for the check, never diagonalized.  With factor
    eigensystems (V_k, Lambda_k), the eigenvalues are the Kronecker sum of
    the Lambda_k, sorted non-increasing by a stable sort, so tied sums keep
    one order on every run, and the eigenvectors the matching columns of
    W = V_q (x) ... (x) V_1 (first factor fastest, as in the vertex order).
    Only the first `columns` of them are composed (all N when None), from
    the picked factor columns in np.kron's operand order, so they are the
    same to the bit as np.kron's.

    The eigensystem is proved in three parts, none of which forms an N x N
    array, N = n_1 ... n_q:
    1. each factor's Spectrum from `eigendecompose`, with its residuals
       r_k, passes the eigenpair gate `spectral.check_eigenpairs`;
    2. with S = sum_k I (x) A_k (x) I the Kronecker sum of the factor
       operators, the column w = v_{j_q} (x) ... (x) v_{j_1} has
       ||S w - lambda w|| <= r_1[j_1] + ... + r_q[j_q] by the triangle
       inequality (up to rounding); that sum is the composed Spectrum's
       residuals, which pass the same gate when it is constructed;
    3. the product's operator is S, by a Freivalds (1977) check: both are
       applied to two random vectors with unit-modulus entries, and must
       agree in every entry within 1e-8 * max(1, max |lambda|).  The
       product side reads its edge arrays in O(m); the S side reads each
       factor's dense `adjacency()`, so a fault in the edge-array code
       cannot cancel out, at O(N (n_1 + ... + n_q)).  The check is
       probabilistic: its vectors come from one generator of fixed seed,
       and a product that is not S passes only where their entries happen
       to cancel the difference.
    Failure of any part raises NumericalError.  W is unitary, so this
    proves the whole eigensystem, the columns not composed included.

    Returns (product, Spectrum).
    """
    product = reduce(cartesian_product, factors)
    spectra = [eigendecompose(f) for f in factors]
    lam, residuals = spectra[0].eigenvalues, spectra[0].residuals
    for s in spectra[1:]:
        lam = np.add.outer(s.eigenvalues, lam).ravel()
        residuals = np.add.outer(s.residuals, residuals).ravel()
    order = np.argsort(-lam, kind="stable")
    lam, residuals = lam[order], residuals[order]
    # the leading columns of the sorted W from the picked factor columns,
    # V_k times the previous factors as np.kron multiplies, so each column
    # is the same to the bit
    picks = np.unravel_index(order[:columns], [s.n for s in reversed(spectra)])[::-1]
    w = spectra[0].eigenvectors[:, picks[0]]
    for s, j in zip(spectra[1:], picks[1:]):
        w = (s.eigenvectors[:, j][:, None, :] * w[None]).reshape(s.n * len(w), -1)
    spectrum = Spectrum(eigenvalues=lam, eigenvectors=w, residuals=residuals)
    _check_kronecker_sum(product, factors, RESIDUAL_TOL * max(1.0, float(np.abs(lam).max())))
    return product, spectrum


def _check_kronecker_sum(product, factors, tol):
    """Raise NumericalError unless product's operator acts on two fixed-seed
    random vectors as sum_k I (x) A_k (x) I, within tol in every entry."""
    x = np.exp(2j * np.pi * rng_from("freivalds").random((product.n, 2)))
    kron_sum = np.zeros_like(x)
    inner = 1  # n_1 ... n_{k-1}: x as (outer, n_k, inner * 2) puts factor k in the middle
    for f in factors:
        a = f.adjacency()  # A_k, dense: not through the edge-array code under test
        kron_sum += (a @ x.reshape(-1, f.n, inner * 2)).reshape(x.shape)
        inner *= f.n
    error = np.abs(product.operator()(x) - kron_sum).max(axis=1)
    if error.max() > tol:
        vertex = int(error.argmax())
        raise NumericalError(
            f"product operator residual {error[vertex]:.3e} at vertex {vertex} exceeds "
            f"tolerance: not the Cartesian product of its factors"
        )


# ----------------------------------------------------------------------
# Product specs and builders
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProductSpec:
    """Ordered list of QL bits plus the product mode.

    A full product keeps each bit's own blocks.  In contracted mode every
    one of the 2^q effective blocks is an independent d-regular random
    graph on n vertices, the n and d every bit shares, and blocks whose
    labels differ in exactly one position are connected using that bit's
    policy and bias, which its spec checked against those blocks.  seed
    draws a contracted product's blocks and cross edges; a bit's own seed,
    which draws its blocks and cross edges, is read only where the bit is
    built: by `build_qlbit`, in a full product and for `attach_witness`'s
    witness copy.  A config derives each bit's seed from seed, by the one
    seed chain in `qllab.cli`.
    """

    qlbits: tuple
    mode: str
    seed: int = 0

    def __post_init__(self):
        # Each message starts with the field it names, so the CLI can
        # prefix the config path.
        object.__setattr__(self, "qlbits", tuple(self.qlbits))
        if len(self.qlbits) < 1:
            raise QllabError("qlbits must hold at least one QL bit")
        if self.mode not in ("full", "contracted"):
            raise QllabError(f"mode must be 'full' or 'contracted', got {self.mode!r}")
        if len(self.qlbits) > len(BIT_NAMES):
            raise QllabError(f"qlbits must hold at most {len(BIT_NAMES)} QL bits")
        if self.mode == "contracted":
            for j, bit in enumerate(self.qlbits):
                for field in ("n", "d"):
                    if getattr(bit, field) != getattr(self.qlbits[0], field):
                        raise QllabError(
                            f"qlbits[{j}].{field}: {getattr(bit, field)} differs from "
                            f"qlbits[0].{field}; a contracted product's bits share one block shape"
                        )

    @property
    def q(self) -> int:
        return len(self.qlbits)


def bit_values(k: int, q: int):
    """Label values (1 or 2 per bit) of basis index k; first bit fastest."""
    return tuple(1 + ((k >> j) & 1) for j in range(q))


def block_label(values) -> str:
    return "".join(f"{BIT_NAMES[j]}{v}" for j, v in enumerate(values))


def full_product_factors(spec: ProductSpec) -> list:
    """The QL bit graphs of a full product, bit j labeled with BIT_NAMES[j]."""
    return [
        build_qlbit(bit, block_names=(f"{name}1", f"{name}2"))
        for name, bit in zip(BIT_NAMES, spec.qlbits)
    ]


def build_full_product(spec: ProductSpec) -> BiasedGraph:
    """Full Cartesian product of the QL bit graphs (N^q vertices)."""
    return reduce(cartesian_product, full_product_factors(spec))


def build_contracted_product(spec: ProductSpec) -> BiasedGraph:
    """Contracted product: one n-vertex d-regular block per basis label.

    Blocks at labels differing in one position are joined with the policy
    and bias of the bit at that position; the label connection graph is the
    q-dimensional hypercube.  Block and cross samples are all independent,
    keyed on the label ("the precise structures do not matter"); with the
    cross-regular policy the block-indicator subspace is exactly invariant,
    which makes the middle eigenvalue pair of a two-bit product with
    matching cross degrees exactly degenerate.
    """
    if spec.mode != "contracted":
        raise QllabError("spec mode is not 'contracted'")
    q = spec.q
    n, d = spec.qlbits[0].n, spec.qlbits[0].d  # every bit's blocks, by ProductSpec
    nblocks = 1 << q

    pairs, bias = [], []
    for k in range(nblocks):
        values = bit_values(k, q)
        offset = k * n
        block = gen_d_regular_random(n, d, derive_seed(spec.seed, "block", values))
        intra = 1.0
        for j, v in enumerate(values):
            bit = spec.qlbits[j]
            intra *= bit.blue_bias if v == 1 else bit.red_bias
        pairs.append(block.edges + offset)
        bias.append(block.bias * intra)

    for k in range(nblocks):
        values = bit_values(k, q)
        for j in range(q):
            if values[j] != 1:
                continue
            partner = k | (1 << j)
            bit = spec.qlbits[j]
            conn = complex(bit.connect_bias)
            if conn == 0:
                continue
            others = tuple(v for t, v in enumerate(values) if t != j)
            rng = rng_from(spec.seed, "cross", j, others)
            cross = sample_cross_pairs(bit, rng)
            # Orientation: value-1 block -> value-2 block carries the bias.
            pairs.append(cross + [k * n, partner * n])
            bias.append(np.full(len(cross), conn))

    blocks = tuple(block_label(bit_values(k, q)) for k in range(nblocks))
    block_of = np.repeat(np.arange(nblocks), n)
    return BiasedGraph.from_edges(
        nblocks * n, np.concatenate(pairs), np.concatenate(bias), None, blocks, block_of
    )


def build_product(spec: ProductSpec) -> BiasedGraph:
    return build_full_product(spec) if spec.mode == "full" else build_contracted_product(spec)


def label_adjacency(g: BiasedGraph):
    """Set of unordered block-name pairs joined by at least one edge."""
    if g.blocks is None:
        raise MissingLabelsError("graph has no block labels")
    a, b = g.block_of[g.edges].T
    crossing = np.unique(np.sort(np.stack([a, b], axis=1)[a != b], axis=1), axis=0)
    return {frozenset((g.blocks[i], g.blocks[j])) for i, j in crossing.tolist()}


def contraction_quotient(spec: ProductSpec):
    """The H_eff a contracted product of spec has, or None when its policies
    leave the block partition to chance.

    Each block is d-regular with its edges weighted by the product of the
    bits' intra biases (blue_bias for value 1, red_bias for value 2), and
    a bit whose cross edges are cross-regular of degree c joins labels that
    differ in it with weight c * connect_bias, oriented value 1 -> value 2.
    A bit with connect_bias 0 has no cross edges.  H_eff is then the
    weighted q-dimensional label hypercube, in basis order.
    """
    q, d = spec.q, spec.qlbits[0].d
    weights = []
    for bit in spec.qlbits:
        conn = complex(bit.connect_bias)
        if conn == 0:
            weights.append(0.0)
        elif isinstance(bit.policy, CrossRegular):
            weights.append(bit.policy.degree * conn)
        else:
            return None
    h = np.zeros((1 << q, 1 << q), dtype=complex)
    for k in range(1 << q):
        values = bit_values(k, q)
        signs = [b.blue_bias if v == 1 else b.red_bias for b, v in zip(spec.qlbits, values)]
        h[k, k] = d * np.prod(signs)
        for j, weight in enumerate(weights):
            if values[j] == 1:
                h[k, k | 1 << j] = weight
                h[k | 1 << j, k] = np.conj(weight)
    return h


def _joins(bit):
    """(may, must): whether bit's cross edges may, and must, join two of
    its blocks at all."""
    policy, conn = bit.policy, complex(bit.connect_bias) != 0
    if isinstance(policy, PairProbability):
        return conn and policy.p > 0, conn and policy.p == 1
    size = policy.degree if isinstance(policy, CrossRegular) else policy.budget(bit.n, bit.d)
    return conn and size > 0, conn and size > 0


def verify_contraction_law(spec: ProductSpec, g: BiasedGraph, quo) -> None:
    """Raise QllabError unless g obeys the contraction law of spec.

    g must have one n-vertex block per label.  When every bit is
    cross-regular (or unconnected), the partition must be equitable, with
    the quotient `quo` (from `spectral.quotient`) equal to
    `contraction_quotient(spec)` within EQUITABLE_TOL.  Otherwise every
    joined label pair must differ in one bit whose policy may join blocks,
    and every pair of a bit whose policy must is joined.
    """
    q, n = spec.q, spec.qlbits[0].n
    if g.n != n * (1 << q):
        raise QllabError("contraction law check failed: wrong vertex count")
    expected = contraction_quotient(spec)
    if expected is None:
        labels = [block_label(bit_values(k, q)) for k in range(1 << q)]
        may, must = set(), set()
        for j, bit in enumerate(spec.qlbits):
            pairs = {frozenset((labels[k], labels[k ^ 1 << j])) for k in range(1 << q)}
            bit_may, bit_must = _joins(bit)
            may |= pairs if bit_may else set()
            must |= pairs if bit_must else set()
        if not must <= label_adjacency(g) <= may:
            raise QllabError("contraction law check failed: wrong label pairs")
    elif not quo.equitable:
        raise QllabError(
            f"contraction law check failed: block partition deviates from "
            f"equitable by {quo.deviation:.3e}"
        )
    elif np.abs(quo.h - expected).max() > EQUITABLE_TOL:
        raise QllabError("contraction law check failed: quotient is not the label hypercube")


# ----------------------------------------------------------------------
# Product-basis projections
# ----------------------------------------------------------------------


def project_product_state(g: BiasedGraph, w):
    """Project a unit eigenvector onto the indicators of g.blocks, in basis
    order; a matrix `w` gives one state per column, from one J."""
    if g.blocks is None:
        raise MissingLabelsError("graph has no block labels")
    return project_blocks(g, g.blocks, w)


def state_doc(eigenvalue, labels, coefficients, residual, **readings) -> dict:
    """One entry of the `product` experiment's effective_states.json, its
    coefficients in the phase of `fixed_phase`."""
    return {
        "eigenvalue": float(eigenvalue),
        "labels": labels,
        "coefficients": [[c.real, c.imag] for c in fixed_phase(coefficients)],
        "residual": residual,
        **readings,
    }


def apply_alignment_detuning(g: BiasedGraph, omega1: float, omega2: float) -> BiasedGraph:
    """Shift only the aligned blocks: all-1 blocks by omega1, all-2 by omega2.

    In basis order these are the first block and the last.  This moves the
    aligned product states as a pair relative to the mixed ones, which
    couples the bits (the effective Hamiltonian gains an interaction term)
    and lets the emergent state acquire partial entanglement.  A per-bit
    additive shift would keep the effective Hamiltonian a sum of single-bit
    terms, and its emergent state a product state.
    """
    if g.blocks is None:
        raise MissingLabelsError("graph has no block labels")
    shift = np.zeros(len(g.blocks))
    shift[0], shift[-1] = omega1, omega2
    return replace(g, diagonal=g.diagonal + shift[g.block_of])
