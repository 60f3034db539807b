"""Two-level graph bits: construction, bias topologies, and projections.

A QL bit couples two regular subgraphs (blocks a1 and a2) through a sparse
set of cross edges.  The two hybridized top eigenstates then behave as an
effective two-level system; `project_two_state` reads the level amplitudes
off any eigenvector via the normalized block indicator vectors.

Cross-edge orientation convention: the adjacency entry from an a1 (blue)
vertex to an a2 (red) vertex equals the connecting bias, so a connecting
bias of i produces the emergent state |a2> + i|a1> at eigenvalue d.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    EmptySubgraphError,
    MissingLabelsError,
    PolicyInfeasibleError,
    QllabError,
)
from .graph import (
    BiasedGraph,
    GraphGenSpec,
    block_indicator,
    build_graph,
    derive_seed,
    rng_from,
    sample_biregular_pairs,
)


# ----------------------------------------------------------------------
# Connection policies
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PairProbability:
    """Each of the n*k cross pairs is an edge independently with probability p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise QllabError(f"p: pair probability {self.p} outside [0, 1]")


@dataclass(frozen=True)
class EdgeBudgetFraction:
    """Exactly round(f * (n+k) * d / 2) cross edges, sampled uniformly.

    The budget is the given fraction of the edges a single d-regular graph
    on all n+k vertices would carry, computed from the blocks' actual edge
    counts (identical for regular blocks).
    """

    fraction: float

    def __post_init__(self):
        if self.fraction < 0.0:
            raise QllabError("fraction: budget fraction must be nonnegative")

    def budget(self, block_edges) -> int:
        """Cross-edge count for blocks that carry block_edges edges together."""
        return int(round(self.fraction * block_edges))


@dataclass(frozen=True)
class CrossRegular:
    """Bipartite k-regular cross edges (requires equal block sizes).

    Keeps the block-indicator subspace exactly invariant, which pins the
    emergent eigenvalues and kills projection residuals.
    """

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise QllabError("degree: cross degree must be nonnegative")


def _pairs_from_flat(flat, n2) -> np.ndarray:
    """(m, 2) pairs (i, j) of flat indices i * n2 + j."""
    return np.stack(np.divmod(np.asarray(flat, dtype=np.int64), n2), axis=1)


def sample_cross_pairs(policy, n1, n2, block_edges, rng) -> np.ndarray:
    """(m, 2) cross pairs (i in block1, j in block2) under the given policy.

    block_edges, the edge count of the two blocks together, sets the size
    of an EdgeBudgetFraction sample.
    """
    _check_policy(policy, n1, n2, block_edges, "policy")
    if isinstance(policy, PairProbability):
        mask = rng.random(n1 * n2) < policy.p
        return _pairs_from_flat(np.flatnonzero(mask), n2)
    if isinstance(policy, EdgeBudgetFraction):
        picks = rng.choice(n1 * n2, size=policy.budget(block_edges), replace=False)
        return _pairs_from_flat(picks, n2)
    if isinstance(policy, CrossRegular):
        return sample_biregular_pairs(n1, policy.degree, rng)
    raise QllabError(f"unknown connect policy {policy!r}")


def _check_policy(policy, n1, n2, block_edges, path):
    """Raise PolicyInfeasibleError unless the policy can join blocks of n1
    and n2 vertices that carry block_edges edges together; the message
    starts with the field at fault, named by the policy's `path`."""
    if isinstance(policy, CrossRegular):
        if n1 != n2:
            raise PolicyInfeasibleError(f"{path}: cross-regular policy needs equal block sizes")
        if policy.degree > n1:
            raise PolicyInfeasibleError(
                f"{path}.degree: cross degree {policy.degree} exceeds block size {n1}"
            )
    elif isinstance(policy, EdgeBudgetFraction) and policy.budget(block_edges) > n1 * n2:
        raise PolicyInfeasibleError(
            f"{path}.fraction: edge budget {policy.budget(block_edges)} exceeds "
            f"{n1 * n2} available cross pairs"
        )


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
    """Recipe for one QL bit.

    sub1/sub2 generate the a1 (blue) and a2 (red) blocks; connect_bias is
    the unit-modulus cross-edge bias (0 leaves the blocks disconnected);
    red_bias/blue_bias are +-1 signs applied to the intra-block edges.
    """

    sub1: GraphGenSpec
    sub2: GraphGenSpec
    connect_policy: object = field(default_factory=lambda: EdgeBudgetFraction(0.2))
    connect_bias: complex = 1.0 + 0.0j
    red_bias: float = 1.0
    blue_bias: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_biases(
            "connect_bias", self.connect_bias, red_bias=self.red_bias, blue_bias=self.blue_bias
        )


def qlbit_spec(n, d, policy=None, connect_bias=1.0, red_bias=1.0, blue_bias=1.0, seed=0):
    """Convenience constructor: two d-regular random blocks of n vertices each.

    Sizes the blocks cannot have, and a policy that cannot join them (a
    cross-regular degree above n, an edge budget above n * n), raise at
    once, with messages that start with the field at fault.
    """
    spec = QLBitSpec(
        sub1=GraphGenSpec("d_regular_random", n=n, d=d, seed=derive_seed(seed, "sub1")),
        sub2=GraphGenSpec("d_regular_random", n=n, d=d, seed=derive_seed(seed, "sub2")),
        connect_policy=policy if policy is not None else EdgeBudgetFraction(0.2),
        connect_bias=connect_bias,
        red_bias=red_bias,
        blue_bias=blue_bias,
        seed=seed,
    )
    _check_policy(spec.connect_policy, n, n, n * d, "policy")  # d-regular blocks: n * d edges
    return spec


def build_qlbit(spec: QLBitSpec, block_names=("a1", "a2")) -> BiasedGraph:
    """Assemble the labeled QL bit graph from its spec.

    Block a1 occupies vertices 0..n-1, block a2 the rest.  Cross edges are
    sampled by the connect policy and all carry connect_bias, oriented
    a1 -> a2.
    """
    g1 = build_graph(spec.sub1)
    g2 = build_graph(spec.sub2)
    if g1.n == 0 or g2.n == 0:
        raise EmptySubgraphError("QL bit blocks must be nonempty")
    n1, n2 = g1.n, g2.n
    pairs = [g1.edges, g2.edges + n1]
    bias = [g1.bias * spec.blue_bias, g2.bias * spec.red_bias]

    conn = complex(spec.connect_bias)
    if conn != 0:
        rng = rng_from(spec.seed, "cross", n1, n2)
        block_edges = g1.num_edges + g2.num_edges
        cross = sample_cross_pairs(spec.connect_policy, n1, n2, block_edges, rng)
        pairs.append(cross + [0, n1])
        bias.append(np.full(len(cross), conn))

    diagonal = np.concatenate([g1.diagonal, g2.diagonal])
    block_of = np.repeat([0, 1], [n1, n2])
    return BiasedGraph.from_edges(
        n1 + n2, np.concatenate(pairs), np.concatenate(bias), diagonal, block_names, block_of
    )


def build_regular_qlbit(
    n_per_side, d, cross_degree=1, seed=0, block_names=("a1", "a2")
) -> BiasedGraph:
    """QL bit that is exactly d-regular including its connecting edges.

    Both blocks are (d - cross_degree)-regular and the cross edges form a
    bipartite cross_degree-regular graph, so every vertex has total degree
    d.  This is the topology the Bloch-axis bias rows act on.
    """
    return build_qlbit(regular_qlbit_spec(n_per_side, d, cross_degree, seed), block_names)


def regular_qlbit_spec(n_per_side, d, cross_degree, seed=0) -> QLBitSpec:
    """The spec `build_regular_qlbit` builds; infeasible sizes raise here,
    with messages that start with the field at fault."""
    if not 1 <= cross_degree < d or cross_degree > n_per_side:
        raise QllabError(
            f"cross_degree: need 1 <= cross_degree < d = {d} and cross_degree <= n = "
            f"{n_per_side}, got {cross_degree}"
        )
    intra = d - cross_degree
    return QLBitSpec(
        sub1=GraphGenSpec(
            "d_regular_random", n=n_per_side, d=intra, seed=derive_seed(seed, "blue")
        ),
        sub2=GraphGenSpec(
            "d_regular_random", n=n_per_side, d=intra, seed=derive_seed(seed, "red")
        ),
        connect_policy=CrossRegular(cross_degree),
        seed=seed,
    )


# ----------------------------------------------------------------------
# Effective two-level projections
# ----------------------------------------------------------------------


@dataclass
class EffectiveTwoState:
    """Amplitudes of an eigenvector on the two block-indicator directions.

    residual is the norm of the eigenvector component outside
    span{J_a1, J_a2}; |alpha|^2 + |beta|^2 + residual^2 = 1 for unit input.
    """

    alpha: complex
    beta: complex
    residual: float

    def normalized(self) -> np.ndarray:
        vec = np.array([self.alpha, self.beta])
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            raise QllabError("projection too small to normalize")
        return vec / norm


def _bit_names(g: BiasedGraph, block_names):
    """block_names, by default the graph's blocks: two of the graph's blocks."""
    names = g.blocks if block_names is None else tuple(block_names)
    if g.blocks is None or len(names) != 2 or not set(names) <= set(g.blocks):
        raise MissingLabelsError(f"need two of the blocks {g.blocks}, got {names}")
    return names


def j_vectors(g: BiasedGraph, block_names=None):
    """Normalized indicator vectors (J_a1, J_a2) of the two blocks."""
    return tuple(block_indicator(g, name) for name in _bit_names(g, block_names))


def project_two_state(g: BiasedGraph, w, block_names=None) -> EffectiveTwoState:
    """Project a unit eigenvector onto the two-level block basis."""
    j1, j2 = j_vectors(g, block_names)
    w = np.asarray(w)
    alpha = complex(np.vdot(j1, w))
    beta = complex(np.vdot(j2, w))
    residual2 = float(np.vdot(w, w).real) - abs(alpha) ** 2 - abs(beta) ** 2
    return EffectiveTwoState(alpha, beta, float(np.sqrt(max(0.0, residual2))))


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
    """Parse a config bias token: one of +1, -1, i, -i, 0."""
    if isinstance(token, (int, float, complex)):
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

    @classmethod
    def from_config(cls, doc: dict) -> "BiasTopology":
        return cls(
            red=bias_from_token(doc["red"]),
            blue=bias_from_token(doc["blue"]),
            conn=bias_from_token(doc["conn"]),
        )


# The six canonical rows: for each Bloch axis, the +|d| and -|d| member.
BLOCH_PROJECTIONS = {
    "x+": BiasTopology(red=1, blue=1, conn=1),
    "x-": BiasTopology(red=-1, blue=-1, conn=1),
    "y+": BiasTopology(red=1, blue=1, conn=1j),
    "y-": BiasTopology(red=-1, blue=-1, conn=1j),
    "z+": BiasTopology(red=1, blue=1, conn=0),
    "z-": BiasTopology(red=-1, blue=-1, conn=0),
}

# Target effective states (alpha, beta) and eigenvalue signs for the rows,
# with alpha on |a1> and beta on |a2>.
BLOCH_TARGETS = {
    "x+": (+1, np.array([1, 1]) / np.sqrt(2)),
    "x-": (-1, np.array([-1, 1]) / np.sqrt(2)),
    "y+": (+1, np.array([1j, 1]) / np.sqrt(2)),
    "y-": (-1, np.array([-1j, 1]) / np.sqrt(2)),
    "z+": (+1, np.array([0, 1])),
    "z-": (-1, np.array([1, 0])),
}


def apply_bias_topology(g: BiasedGraph, topology: BiasTopology, block_names=None) -> BiasedGraph:
    """Overwrite intra- and cross-block biases according to a projection row.

    The graph should be d-regular including its connecting edges (see
    build_regular_qlbit).  A connecting bias of zero removes the cross
    edges.  Orientation: A[a1, a2] = conn.
    """
    blue_k, red_k = (g.blocks.index(name) for name in _bit_names(g, block_names))
    conn = complex(topology.conn)
    side = g.block_of[g.edges]  # (m, 2) block index of each end
    blue = (side == blue_k).all(axis=1)
    red = (side == red_k).all(axis=1)
    cross = np.where(side[:, 0] == blue_k, conn, conn.conjugate())
    bias = np.where(blue, complex(topology.blue), np.where(red, complex(topology.red), cross))
    keep = blue | red | (conn != 0)
    return replace(g, edges=g.edges[keep], bias=bias[keep])
