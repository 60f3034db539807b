"""Two-level graph bits: construction, bias topologies, and projections.

A QL bit couples two n-vertex d-regular random blocks, a1 and a2, through
a sparse set of cross edges.  `QLBitSpec` is that one shape, and it checks
its sizes, connect policy and biases when it is made, so a spec that
exists can be built.  The block structure splits two hybridized levels off
the bulk, at its top with +1 block biases and at its bottom with -1 ones;
they behave as an effective two-level system, and the emergent state is
the one of largest |lambda|.  `spectral.emergent_state` is its one
reader: it reads a Bloch-row or other cross-regular bit, whose two blocks
form an equitable partition, off the 2 x 2 block quotient, and a budget or
pair-probability bit off one eigenvector projected through
`graph.project_blocks`, the one projection onto unit block indicators, as
a product's projection is.  Either way `qlbit` reports the level
amplitudes (alpha, beta) in the phase of `spectral.fixed_phase`, and the
reader solves no eigenvalue when one Cholesky proves the level simple
(`spectral.level_is_simple`): every Bloch row and every bit with +1
biases, where a Gershgorin or Perron-Frobenius bound puts the level at the
end of the spectrum.  `project_two_state` projects any other vector onto a
bit's two blocks, as the witness readout does.  A bit's one seed draws
both blocks and the cross edges, so the same bit with another seed is a
fresh copy of it.

Cross-edge orientation convention: the adjacency entry from an a1 (blue)
vertex to an a2 (red) vertex equals the connecting bias, so a connecting
bias of i produces the emergent state |a2> + i|a1> at eigenvalue d.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import MissingLabelsError, PolicyInfeasibleError, QllabError
from .graph import (
    BiasedGraph,
    GraphGenSpec,
    derive_seed,
    gen_d_regular_random,
    project_blocks,
    rng_from,
    sample_biregular_pairs,
)


# ----------------------------------------------------------------------
# Connection policies
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PairProbability:
    """Each of the n * n cross pairs is an edge independently with probability p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise QllabError(f"p: pair probability {self.p} outside [0, 1]")


@dataclass(frozen=True)
class EdgeBudgetFraction:
    """Exactly round(f * n * d) cross edges between two n-vertex d-regular
    blocks, sampled uniformly: the given fraction of the n * d edges a
    single d-regular graph on all 2n vertices would carry.
    """

    fraction: float

    def __post_init__(self):
        if self.fraction < 0.0:
            raise QllabError("fraction: budget fraction must be nonnegative")

    def budget(self, n, d) -> int:
        """Cross-edge count between two n-vertex d-regular blocks."""
        return int(round(self.fraction * (n * d)))


@dataclass(frozen=True)
class CrossRegular:
    """Bipartite k-regular cross edges.

    Keeps the block-indicator subspace exactly invariant, which pins the
    emergent eigenvalues and kills projection residuals.
    """

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise QllabError("degree: cross degree must be nonnegative")


def sample_cross_pairs(bit, rng) -> np.ndarray:
    """(m, 2) cross pairs (i in block1, j in block2) between two blocks of
    bit's shape, under its connect policy."""
    policy, n = bit.policy, bit.n
    if isinstance(policy, PairProbability):
        flat = np.flatnonzero(rng.random(n * n) < policy.p)
    elif isinstance(policy, EdgeBudgetFraction):
        flat = rng.choice(n * n, size=policy.budget(n, bit.d), replace=False)
    elif isinstance(policy, CrossRegular):
        flat = sample_biregular_pairs(n, policy.degree, rng)
    else:
        raise QllabError(f"unknown connect policy {policy!r}")
    return np.stack(np.divmod(flat, n), axis=1)  # flat index i * n + j


# ----------------------------------------------------------------------
# QL bit construction
# ----------------------------------------------------------------------


def _check_biases(conn_field, conn, **signs):
    """Raise unless each of `signs` is +1 or -1 and the connecting bias
    `conn` has unit modulus or is zero.  Each message starts with the field
    it names, so the CLI can prefix the config path."""
    for name, value in signs.items():
        if complex(value) not in (1, -1):
            raise QllabError(f"{name}: must be +1 or -1")
    mag = abs(complex(conn))
    if mag != 0.0 and abs(mag - 1.0) > 1e-12:
        raise QllabError(f"{conn_field}: must be unit modulus or zero")


@dataclass(frozen=True)
class QLBitSpec:
    """Recipe for one QL bit: two d-regular random blocks of n vertices each.

    seed is the bit's one seed: it draws the a1 (blue) and a2 (red) blocks
    and the cross edges, so a bit with a fresh seed is a fresh bit; policy
    samples the cross edges (None is the default, an edge budget of 0.2),
    which carry the unit-modulus connect_bias (0 leaves the blocks
    disconnected); red_bias/blue_bias are +-1 signs on the intra-block
    edges.  A bad size, policy or bias raises here, with a message that
    starts with its field, so the policy fits these blocks and every block
    of a contracted product, which shares their (n, d).
    """

    n: int
    d: int
    policy: object = None
    connect_bias: complex = 1.0 + 0.0j
    red_bias: float = 1.0
    blue_bias: float = 1.0
    seed: int = 0

    def __post_init__(self):
        GraphGenSpec("d_regular_random", n=self.n, d=self.d)  # raises unless (n, d) is feasible
        _check_biases(
            "connect_bias", self.connect_bias, red_bias=self.red_bias, blue_bias=self.blue_bias
        )
        if self.policy is None:
            object.__setattr__(self, "policy", EdgeBudgetFraction(0.2))
        policy, n = self.policy, self.n
        if isinstance(policy, CrossRegular) and policy.degree > n:
            raise PolicyInfeasibleError(
                f"policy.degree: cross degree {policy.degree} exceeds block size {n}"
            )
        if isinstance(policy, EdgeBudgetFraction) and policy.budget(n, self.d) > n * n:
            raise PolicyInfeasibleError(
                f"policy.fraction: edge budget {policy.budget(n, self.d)} exceeds "
                f"{n * n} available cross pairs"
            )


def build_qlbit(spec: QLBitSpec, block_names=("a1", "a2")) -> BiasedGraph:
    """Assemble the labeled QL bit graph from its spec.

    Block a1 occupies vertices 0..n-1, block a2 the rest; each is drawn
    from the seed derive_seed(spec.seed, "sub1") or "sub2".  Cross edges
    are sampled by the connect policy and all carry connect_bias, oriented
    a1 -> a2.
    """
    n = spec.n
    blue, red = (gen_d_regular_random(n, spec.d, derive_seed(spec.seed, s)) for s in ("sub1", "sub2"))
    pairs = [blue.edges, red.edges + n]
    bias = [blue.bias * spec.blue_bias, red.bias * spec.red_bias]

    conn = complex(spec.connect_bias)
    if conn != 0:
        rng = rng_from(spec.seed, "cross", n, n)
        cross = sample_cross_pairs(spec, rng)
        pairs.append(cross + [0, n])
        bias.append(np.full(len(cross), conn))

    block_of = np.repeat([0, 1], n)
    return BiasedGraph.from_edges(
        2 * n, np.concatenate(pairs), np.concatenate(bias), None, block_names, block_of
    )


def build_regular_qlbit(n_per_side, d, cross_degree=1, seed=0) -> BiasedGraph:
    """QL bit that is exactly d-regular including its connecting edges.

    Both blocks are (d - cross_degree)-regular and the cross edges form a
    bipartite cross_degree-regular graph, so every vertex has total degree
    d.  This is the topology the Bloch-axis bias rows act on.
    """
    return build_qlbit(regular_qlbit_spec(n_per_side, d, cross_degree, seed))


def regular_qlbit_spec(n_per_side, d, cross_degree, seed=0) -> QLBitSpec:
    """The spec `build_regular_qlbit` builds; infeasible sizes raise here,
    with messages that start with the field at fault."""
    if not 1 <= cross_degree < d or cross_degree > n_per_side:
        raise QllabError(
            f"cross_degree: need 1 <= cross_degree < d = {d} and cross_degree <= n = "
            f"{n_per_side}, got {cross_degree}"
        )
    return QLBitSpec(n_per_side, d - cross_degree, CrossRegular(cross_degree), seed=seed)


# ----------------------------------------------------------------------
# Effective two-level projections
# ----------------------------------------------------------------------


def _bit_names(g: BiasedGraph, block_names):
    """block_names, by default the graph's blocks: two of the graph's blocks."""
    names = g.blocks if block_names is None else tuple(block_names)
    if g.blocks is None or len(names) != 2 or not set(names) <= set(g.blocks):
        raise MissingLabelsError(f"need two of the blocks {g.blocks}, got {names}")
    return names


def project_two_state(g: BiasedGraph, w, block_names=None):
    """Project a unit eigenvector onto the two-level block basis.

    The state's coefficients are (alpha, beta) on the two blocks,
    block_names or the graph's own two, in that order.
    """
    return project_blocks(g, _bit_names(g, block_names), w)


# ----------------------------------------------------------------------
# Bloch-axis bias topologies
# ----------------------------------------------------------------------

_BIAS_TOKENS = {
    "+1": 1 + 0j,
    "-1": -1 + 0j,
    "1": 1 + 0j,
    "i": 1j,
    "+i": 1j,
    "-i": -1j,
    "0": 0j,
}


def bias_from_token(token) -> complex:
    """Parse a config bias token: one of +1, -1, i, -i, 0.  A boolean is
    none, though complex(False) is 0."""
    if isinstance(token, (int, float, complex)) and not isinstance(token, bool):
        return complex(token)
    try:
        return _BIAS_TOKENS[str(token).strip()]
    except KeyError:
        raise QllabError(f"unknown bias token {token!r}") from None


@dataclass(frozen=True)
class BiasTopology:
    """Edge biases of one Bloch-axis projection row.

    red applies to edges inside the a2 block, blue inside a1, conn to the
    connecting edges (0 removes them).
    """

    red: complex
    blue: complex
    conn: complex

    def __post_init__(self):
        _check_biases("conn", self.conn, red=self.red, blue=self.blue)


# The six canonical rows: for each Bloch axis, the +|d| and -|d| member.
# With BLOCH_TARGETS, this is the paper's Bloch table, kept as the data the
# tests check every row's reported state against.
BLOCH_PROJECTIONS = {
    "x+": BiasTopology(red=1, blue=1, conn=1),
    "x-": BiasTopology(red=-1, blue=-1, conn=1),
    "y+": BiasTopology(red=1, blue=1, conn=1j),
    "y-": BiasTopology(red=-1, blue=-1, conn=1j),
    "z+": BiasTopology(red=1, blue=1, conn=0),
    "z-": BiasTopology(red=-1, blue=-1, conn=0),
}

# Target effective states (alpha, beta) and eigenvalue signs for the rows,
# with alpha on |a1> and beta on |a2>, in the phase of `spectral.fixed_phase`.
# A z row has no cross edges, so its level is 2-fold; the canonical basis of
# that level starts with the projection of |a1>, which is |a1> itself, for
# z+ and z- alike.
BLOCH_TARGETS = {
    "x+": (+1, np.array([1, 1]) / np.sqrt(2)),
    "x-": (-1, np.array([1, -1]) / np.sqrt(2)),
    "y+": (+1, np.array([1, -1j]) / np.sqrt(2)),
    "y-": (-1, np.array([1, 1j]) / np.sqrt(2)),
    "z+": (+1, np.array([1, 0])),
    "z-": (-1, np.array([1, 0])),
}


def apply_bias_topology(g: BiasedGraph, topology: BiasTopology) -> BiasedGraph:
    """Overwrite intra- and cross-block biases according to a projection row.

    The graph should be d-regular including its connecting edges (see
    build_regular_qlbit).  A connecting bias of zero removes the cross
    edges.  Orientation: A[a1, a2] = conn.
    """
    blue_k, red_k = (g.blocks.index(name) for name in _bit_names(g, None))
    conn = complex(topology.conn)
    side = g.block_of[g.edges]  # (m, 2) block index of each end
    blue = (side == blue_k).all(axis=1)
    red = (side == red_k).all(axis=1)
    cross = np.where(side[:, 0] == blue_k, conn, conn.conjugate())
    bias = np.where(blue, complex(topology.blue), np.where(red, complex(topology.red), cross))
    keep = blue | red | (conn != 0)
    return replace(g, edges=g.edges[keep], bias=bias[keep])
