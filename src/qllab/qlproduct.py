"""Cartesian products of QL bits, contracted products, and multi-bit projections.

Basis convention: with q bits named a, b, c, ... the 2^q product basis is
enumerated with the FIRST bit varying fastest, i.e. a1b1, a2b1, a1b2, a2b2
for q = 2.  Block labels concatenate per-bit names ("a1b2").  Vertex order
inside a product follows the same rule: the index of (u, x) in g [] h is
x * |g| + u.

Full products are solved from their factors: `verify_spectrum_composition`
composes the eigensystem of f_1 [] ... [] f_q from the factor eigensystems
(Kronecker-sum eigenvalues, Kronecker-product eigenvectors) and checks
every composed eigenpair against the product's operator, so the `product`
experiment never diagonalizes an N^q-vertex matrix.  At 576 vertices the
check, one matrix product, replaces a dense eigensolve.  Contracted
products have no such structure and go through `eigendecompose`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .errors import MissingLabelsError, NumericalError, QllabError
from .graph import (
    BiasedGraph,
    _check_size,
    block_indicator,
    derive_seed,
    gen_d_regular_random,
    rng_from,
)
from .qlbit import _check_policy, build_qlbit, sample_cross_pairs
from .spectral import _RESIDUAL_TOL, Spectrum, _dense_operator, eigendecompose

BIT_NAMES = "abcdefgh"

_LABEL_RE = re.compile(r"([a-zA-Z]+?)([12])")


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


def verify_spectrum_composition(*factors):
    """Solve f_1 [] ... [] f_q from its factors and verify the composition law.

    Each factor is diagonalized on its own; the product is built only for
    its labels and for the check, never diagonalized.  With factor
    eigensystems (V_k, Lambda_k), the eigenvectors are the columns of
    W = V_q (x) ... (x) V_1 (first factor fastest, as in the vertex order)
    and the eigenvalues the Kronecker sum of the Lambda_k, sorted
    non-increasing by a stable sort, so tied sums keep one order on every
    run.  Every column is checked against the product's operator,
    ||A w - lambda w|| <= 1e-8 * max(1, |lambda|); W is unitary, so this
    proves the whole eigensystem.  Failure raises NumericalError.

    Returns (product, Spectrum).
    """
    product = reduce(cartesian_product, factors)
    spectra = [eigendecompose(f) for f in factors]
    w, lam = spectra[0].eigenvectors, spectra[0].eigenvalues
    for s in spectra[1:]:
        w = np.kron(s.eigenvectors, w)
        lam = np.add.outer(s.eigenvalues, lam).ravel()
    order = np.argsort(-lam, kind="stable")
    lam, w = lam[order], w[:, order]
    residual = np.linalg.norm(_dense_operator(product) @ w - w * lam, axis=0)
    bad = np.flatnonzero(residual > _RESIDUAL_TOL * np.maximum(1.0, np.abs(lam)))
    if len(bad):
        k = bad[0]
        raise NumericalError(f"composed eigenpair {k} residual {residual[k]:.3e} exceeds tolerance")
    return product, Spectrum(eigenvalues=lam, eigenvectors=w)


# ----------------------------------------------------------------------
# Product specs and builders
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProductSpec:
    """Ordered list of QL bits plus the product mode.

    In contracted mode every one of the 2^q effective blocks is an
    independent d-regular random graph on n vertices (n, d taken from the
    fields below, falling back to the first bit's sub1 spec), and blocks
    whose labels differ in exactly one position are connected using that
    bit's policy and bias, so every bit's policy must fit n-vertex blocks.
    """

    qlbits: tuple
    mode: str = "full"
    n: int = None
    d: int = None
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
            n, d = self.block_size(), self.block_degree()
            _check_size("d_regular_random", n, d)
            for j, bit in enumerate(self.qlbits):  # two d-regular blocks: n * d edges
                _check_policy(bit.connect_policy, n, n, n * d, f"qlbits[{j}].policy")

    @property
    def q(self) -> int:
        return len(self.qlbits)

    def block_size(self) -> int:
        return self.n if self.n is not None else self.qlbits[0].sub1.n

    def block_degree(self) -> int:
        return self.d if self.d is not None else self.qlbits[0].sub1.implied_degree()


def bit_values(k: int, q: int):
    """Label values (1 or 2 per bit) of basis index k; first bit fastest."""
    return tuple(1 + ((k >> j) & 1) for j in range(q))


def block_label(values, names=BIT_NAMES) -> str:
    return "".join(f"{names[j]}{v}" for j, v in enumerate(values))


def parse_block_label(label: str):
    """Split a block label like 'a1b2' into (('a', 'b'), (1, 2))."""
    parts = _LABEL_RE.findall(label)
    if "".join(f"{n}{v}" for n, v in parts) != label:
        raise MissingLabelsError(f"cannot parse block label {label!r}")
    names = tuple(n for n, _ in parts)
    values = tuple(int(v) for _, v in parts)
    return names, values


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
    n = spec.block_size()
    d = spec.block_degree()  # ProductSpec checked that (n, d) is feasible
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
            cross = sample_cross_pairs(bit.connect_policy, n, n, n * d, rng)
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


# ----------------------------------------------------------------------
# Product-basis projections
# ----------------------------------------------------------------------


def product_basis_labels(g: BiasedGraph):
    """Block labels of g in canonical basis order (first bit fastest)."""
    if g.blocks is None:
        raise MissingLabelsError("graph has no block labels")
    by_values = {}
    names_ref = None
    for label in g.blocks:
        names, values = parse_block_label(label)
        if names_ref is None:
            names_ref = names
        elif names != names_ref:
            raise MissingLabelsError(
                f"inconsistent bit names: {names_ref} vs {names}"
            )
        by_values[values] = label
    q = len(names_ref)
    if len(by_values) != (1 << q):
        raise MissingLabelsError(
            f"expected {1 << q} blocks for {q} bits, found {len(by_values)}"
        )
    return [by_values[bit_values(k, q)] for k in range(1 << q)]


def product_j_vectors(g: BiasedGraph) -> np.ndarray:
    """Columns: normalized block indicators in canonical basis order.

    Vertex membership is read from g.block_of, never assumed contiguous.
    """
    return np.stack([block_indicator(g, label) for label in product_basis_labels(g)], axis=1)


@dataclass
class EffectiveProductState:
    """Coefficients of an eigenvector in the 2^q product basis."""

    coefficients: np.ndarray
    residual: float
    labels: list = field(default_factory=list)

    def normalized(self) -> np.ndarray:
        norm = np.linalg.norm(self.coefficients)
        if norm < 1e-12:
            raise QllabError("projection too small to normalize")
        return self.coefficients / norm


def project_product_state(g: BiasedGraph, w) -> EffectiveProductState:
    """Project a unit eigenvector onto all block indicators."""
    j = product_j_vectors(g)
    w = np.asarray(w)
    coeffs = j.T.conj() @ w
    residual2 = float(np.vdot(w, w).real) - float(np.vdot(coeffs, coeffs).real)
    return EffectiveProductState(
        coefficients=coeffs.astype(complex),
        residual=float(np.sqrt(max(0.0, residual2))),
        labels=product_basis_labels(g),
    )


def sign_pattern_states(q: int = 2) -> dict:
    """The 2^q equal-weight sign-pattern states, keyed by per-bit signs.

    Key "+-" means bit a symmetric, bit b antisymmetric; component k of the
    vector is the product over bits of (sign_j if bit j of k is in state 2).
    """
    out = {}
    dim = 1 << q
    for mask in range(dim):
        signs = tuple(-1 if (mask >> j) & 1 else 1 for j in range(q))
        key = "".join("+" if s > 0 else "-" for s in signs)
        vec = np.ones(dim)
        for k in range(dim):
            for j, v in enumerate(bit_values(k, q)):
                if v == 2:
                    vec[k] *= signs[j]
        out[key] = vec / np.sqrt(dim)
    return out


def apply_alignment_detuning(g: BiasedGraph, omega1: float, omega2: float) -> BiasedGraph:
    """Shift only the aligned blocks: all-1 blocks by omega1, all-2 by omega2.

    This moves the aligned product states as a pair relative to the mixed
    ones, which couples the bits (the effective Hamiltonian gains an
    interaction term) and lets the emergent state acquire partial
    entanglement.  A per-bit additive shift would keep the effective
    Hamiltonian a sum of single-bit terms, and its emergent state a product
    state.
    """
    if g.blocks is None:
        raise MissingLabelsError("graph has no block labels")
    shift = np.zeros(len(g.blocks))
    for k, label in enumerate(g.blocks):
        _, values = parse_block_label(label)
        if all(v == 1 for v in values):
            shift[k] = omega1
        elif all(v == 2 for v in values):
            shift[k] = omega2
    return replace(g, diagonal=g.diagonal + shift[g.block_of])
