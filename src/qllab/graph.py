"""Complex-edge-biased graphs: containers, generators, and mutations.

A graph stores its edge set as two canonical arrays: `edges`, the (m, 2)
vertex pairs with u < v on every row, sorted lexicographically, and `bias`,
the adjacency entries A[u, v].  The conjugate entry A[v, u] is implied, so
every graph is Hermitian by construction.  `BiasedGraph.from_edges` is the
only place that orients, sorts and validates an edge list; generators and
compositions hand it concatenated, offset arrays.  The arrays and the
diagonal are read-only, so an operation that keeps or subsets a canonical
edge set shares them through `dataclasses.replace` instead of copying.  All
randomized operations take an explicit seed and derive a private generator
from it.

A labeled graph also carries a partition into the named blocks (a1, a2,
a1b2, ...) whose indicators span the QL state space: `blocks`, the tuple
of names, and `block_of`, each vertex's index into `blocks`.  An owner
array puts every vertex in exactly one block, so the partition needs no
overlap or cover check, only a range check.  `block_indicator` is the one
place that builds a unit block indicator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import InfeasibleDegreeError, MissingLabelsError, QllabError, RetryExhaustedError

_MAX_RESTARTS = 10_000
_MAX_REPAIR_ROUNDS = 200


def derive_seed(*parts) -> int:
    """Deterministic 63-bit seed from an arbitrary tuple of hashable parts."""
    text = "/".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def rng_from(*parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))


def _read_only(values, dtype) -> np.ndarray:
    """values as a read-only array; a writable input is copied first."""
    a = np.asarray(values, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(eq=False)
class BiasedGraph:
    """Undirected graph with complex edge biases and a real diagonal.

    Attributes
    ----------
    n : int
        Number of vertices, indexed 0..n-1.
    edges : ndarray, shape (m, 2), int64
        Vertex pairs with u < v on every row, sorted lexicographically.
    bias : ndarray, shape (m,), complex128
        A[u, v] for each row of `edges`; A[v, u] = conj(A[u, v]).
    diagonal : ndarray, shape (n,)
        Real per-vertex offsets (frequency disorder, detuning).
    blocks : tuple[str, ...] or None
        Names of the blocks of an optional vertex partition, in order.
    block_of : ndarray, shape (n,), int64, or None
        Index into `blocks` of each vertex's block; set with `blocks`.

    Each vertex holds one block index, so blocks never overlap and always
    cover the vertices; names are unique and no block is empty.  `edges`,
    `bias`, `diagonal` and `block_of` are read-only arrays (writable inputs
    are copied), so graphs may share them.  Build graphs with `from_edges`,
    which puts any edge list into the canonical form above; derive a graph
    that keeps or subsets a canonical edge set with `dataclasses.replace`.
    Graphs compare and hash by identity; compare their contents through
    `graph_to_json`.
    """

    n: int
    edges: np.ndarray = None
    bias: np.ndarray = None
    diagonal: np.ndarray = None
    blocks: tuple = None
    block_of: np.ndarray = None

    def __post_init__(self):
        if self.n < 0:
            raise QllabError("vertex count must be nonnegative")
        if self.edges is None:
            self.edges = np.empty((0, 2), dtype=np.int64)
        if self.bias is None:
            self.bias = np.ones(len(self.edges), dtype=complex)
        if self.diagonal is None:
            self.diagonal = np.zeros(self.n)
        self.edges = _read_only(self.edges, np.int64)
        self.bias = _read_only(self.bias, complex)
        self.diagonal = _read_only(self.diagonal, float)
        if self.edges.shape != (len(self.bias), 2):
            raise QllabError("edges must be an (m, 2) array with one bias per row")
        if self.diagonal.shape != (self.n,):
            raise QllabError("diagonal length must equal vertex count")
        if (self.blocks is None) != (self.block_of is None):
            raise QllabError("blocks and block_of must be given together")
        if self.blocks is not None:
            self.blocks = tuple(self.blocks)
            self.block_of = _read_only(self.block_of, np.int64)
            k = len(self.blocks)
            if len(set(self.blocks)) != k:
                raise QllabError(f"block names repeat: {self.blocks}")
            if self.block_of.shape != (self.n,) or not np.isin(self.block_of, range(k)).all():
                raise QllabError(f"block_of must hold one index in [0, {k}) per vertex")
            sizes = np.bincount(self.block_of, minlength=k)
            if not sizes.all():
                raise QllabError(f"block {self.blocks[sizes.argmin()]!r} has no vertices")

    @classmethod
    def from_edges(cls, n, pairs, bias=None, diagonal=None, blocks=None, block_of=None):
        """Build a graph from (m, 2) vertex pairs and their biases A[u, v].

        bias defaults to all ones.  Each pair is oriented to u < v,
        conjugating its bias when the input orientation is reversed, and the
        rows are sorted.  Self loops, out-of-range vertices, duplicate pairs
        and zero biases raise.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise QllabError(f"pairs must have shape (m, 2), got {pairs.shape}")
        if bias is None:
            bias = np.ones(len(pairs), dtype=complex)
        bias = np.asarray(bias, dtype=complex)
        if bias.shape != (len(pairs),):
            raise QllabError(f"need one bias per pair, got shape {bias.shape}")
        bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
        if bad.size:
            u, v = pairs[bad[0]]
            raise QllabError(f"edge ({u}, {v}) out of range for n={n}")
        loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
        if loops.size:
            raise QllabError(f"self loop at vertex {pairs[loops[0], 0]}")
        flip = pairs[:, 0] > pairs[:, 1]
        pairs = np.where(flip[:, None], pairs[:, ::-1], pairs)
        bias = np.where(flip, bias.conj(), bias)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs, bias = pairs[order], bias[order]
        dup = np.flatnonzero((pairs[1:] == pairs[:-1]).all(axis=1))
        if dup.size:
            u, v = pairs[dup[0]]
            raise QllabError(f"duplicate edge ({u}, {v})")
        zero = np.flatnonzero(bias == 0)
        if zero.size:
            u, v = pairs[zero[0]]
            raise QllabError(f"zero bias on edge ({u}, {v})")
        return cls(n, pairs, bias, diagonal, blocks, block_of)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Per-vertex edge count (bias values ignored)."""
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def adjacency(self) -> np.ndarray:
        """Dense Hermitian adjacency matrix, diagonal included."""
        a = np.zeros((self.n, self.n), dtype=complex)
        u, v = self.edges.T
        a[u, v] = self.bias
        a[v, u] = self.bias.conj()
        a[np.diag_indices(self.n)] = self.diagonal
        return a


def block_indicator(g: BiasedGraph, name) -> np.ndarray:
    """Unit-norm indicator vector of block `name`: 1/sqrt(size) on its vertices."""
    if g.blocks is None or name not in g.blocks:
        raise MissingLabelsError(f"block {name!r} missing from labels {g.blocks}")
    members = g.block_of == g.blocks.index(name)
    return members / np.sqrt(np.count_nonzero(members))


@dataclass(frozen=True)
class GraphGenSpec:
    """Recipe for a deterministic graph sample.

    kind is one of 'd_regular_random', 'cycle', 'complete',
    'bipartite_d_regular', or 'two_lift' (with `base` set).  For the
    bipartite kind, `n` counts vertices per side.
    """

    kind: str
    n: int = 0
    d: int = None
    seed: int = 0
    base: "GraphGenSpec" = None

    def __post_init__(self):
        # Each message starts with the field it names, so the CLI can
        # prefix the config path.
        if self.kind == "two_lift":
            if self.base is None:
                raise QllabError("base: a two_lift needs a base graph")
        elif self.kind in _KINDS:
            _check_size(self.kind, self.n, self.d)
        else:
            raise QllabError(f"kind: unknown graph kind {self.kind!r}")

    def implied_degree(self) -> int:
        if self.kind in ("d_regular_random", "bipartite_d_regular"):
            return self.d
        if self.kind == "cycle":
            return 2
        if self.kind == "complete":
            return self.n - 1
        return self.base.implied_degree()


_KINDS = ("d_regular_random", "cycle", "complete", "bipartite_d_regular")


def _check_size(kind, n, d=None):
    """Raise InfeasibleDegreeError unless a `kind` graph on n vertices (per
    side, when bipartite) of degree d exists; the message starts with the
    field at fault."""
    if n < 1:
        raise InfeasibleDegreeError(f"n: need at least one vertex, got {n}")
    if kind == "cycle" and n < 3:
        raise InfeasibleDegreeError(f"n: a cycle needs n >= 3, got {n}")
    high = n if kind == "bipartite_d_regular" else n - 1
    if kind in ("d_regular_random", "bipartite_d_regular") and (d is None or not 1 <= d <= high):
        raise InfeasibleDegreeError(f"d: degree {d} infeasible for {n} vertices")
    if kind == "d_regular_random" and n * d % 2:
        raise InfeasibleDegreeError(f"d: n*d = {n * d} must be even")


def build_graph(spec: GraphGenSpec) -> BiasedGraph:
    """Materialize a GraphGenSpec."""
    if spec.kind == "d_regular_random":
        return gen_d_regular_random(spec.n, spec.d, spec.seed)
    if spec.kind == "cycle":
        return gen_cycle(spec.n)
    if spec.kind == "complete":
        return gen_complete(spec.n)
    if spec.kind == "bipartite_d_regular":
        return gen_bipartite_d_regular(spec.n, spec.d, spec.seed)
    return two_lift(build_graph(spec.base), spec.seed)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def _pair_array(pairs) -> np.ndarray:
    """A set of (a, b) tuples as an (m, 2) int64 array, in set order."""
    flat = chain.from_iterable(pairs)
    return np.fromiter(flat, dtype=np.int64, count=2 * len(pairs)).reshape(-1, 2)


def _pairs_without(pairs, removed, width) -> np.ndarray:
    """Rows of pairs not in removed; every second entry is below width."""
    keys = pairs[:, 0] * width + pairs[:, 1]
    return pairs[~np.isin(keys, removed[:, 0] * width + removed[:, 1])]


def _pairing_attempt(n, d, rng):
    """One configuration-model attempt with stub repair; None on dead end."""
    edges = set()
    stubs = np.repeat(np.arange(n), d)
    rounds = 0
    while stubs.size:
        rounds += 1
        if rounds > _MAX_REPAIR_ROUNDS:
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
            # Dead end unless some leftover pair is still placeable.
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


def _sample_regular_pairs(n, d, rng) -> np.ndarray:
    """(m, 2) edges of a uniform-ish random d-regular simple graph."""
    if d > (n - 1) // 2:
        # Dense regime: sample the complement (empty for d = n - 1) instead.
        all_pairs = np.stack(np.triu_indices(n, 1), axis=1)
        return _pairs_without(all_pairs, _sample_regular_pairs(n, n - 1 - d, rng), n)
    for _ in range(_MAX_RESTARTS):
        edges = _pairing_attempt(n, d, rng)
        if edges is not None:
            return _pair_array(edges)
    raise RetryExhaustedError(
        f"pairing sampler failed after {_MAX_RESTARTS} restarts (n={n}, d={d})"
    )


def gen_d_regular_random(n, d, seed) -> BiasedGraph:
    """Random d-regular simple graph with all edge biases +1.

    Uses the configuration model with stub repair; for d > (n-1)/2 the
    complement graph is sampled instead.  Identical (n, d, seed) inputs
    reproduce the same edge set bit for bit.
    """
    _check_size("d_regular_random", n, d)
    rng = rng_from(seed, "d_regular", n, d)
    pairs = _sample_regular_pairs(n, d, rng)
    assert len(pairs) == n * d // 2
    return BiasedGraph.from_edges(n, pairs)


def gen_cycle(n) -> BiasedGraph:
    _check_size("cycle", n)
    i = np.arange(n)
    return BiasedGraph.from_edges(n, np.stack([i, (i + 1) % n], axis=1))


def gen_complete(n) -> BiasedGraph:
    _check_size("complete", n)
    return BiasedGraph.from_edges(n, np.stack(np.triu_indices(n, 1), axis=1))


def _bipartite_attempt(n, k, rng):
    """One bipartite pairing attempt with repair; pairs (i, j), both in 0..n-1."""
    pairs = set()
    left = np.repeat(np.arange(n), k)
    right = np.repeat(np.arange(n), k)
    rounds = 0
    while left.size:
        rounds += 1
        if rounds > _MAX_REPAIR_ROUNDS:
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


def sample_biregular_pairs(n, k, rng) -> np.ndarray:
    """(m, 2) pairs (i, j) of a random k-regular bipartite graph on n+n vertices."""
    if k > n // 2:
        # Sample the complement (empty for k = n) instead.
        all_pairs = np.stack(np.divmod(np.arange(n * n), n), axis=1)
        return _pairs_without(all_pairs, sample_biregular_pairs(n, n - k, rng), n)
    for _ in range(_MAX_RESTARTS):
        pairs = _bipartite_attempt(n, k, rng)
        if pairs is not None:
            return _pair_array(pairs)
    raise RetryExhaustedError(
        f"bipartite sampler failed after {_MAX_RESTARTS} restarts (n={n}, k={k})"
    )


def gen_bipartite_d_regular(n_per_side, d, seed) -> BiasedGraph:
    """Random bipartite d-regular graph; sides are 0..n-1 and n..2n-1."""
    _check_size("bipartite_d_regular", n_per_side, d)
    rng = rng_from(seed, "bipartite", n_per_side, d)
    pairs = sample_biregular_pairs(n_per_side, d, rng)
    return BiasedGraph.from_edges(2 * n_per_side, pairs + [0, n_per_side])


def two_lift(g: BiasedGraph, seed, force_parallel=False) -> BiasedGraph:
    """Random 2-lift: each edge lifts to a parallel or a crossing pair.

    Vertex u's mirror copy is u + n.  With force_parallel the lift is the
    disjoint double cover (a test hook).
    """
    n = g.n
    if force_parallel:
        crossing = np.zeros(g.num_edges, dtype=bool)
    else:
        rng = rng_from(seed, "two_lift", n, g.num_edges)
        crossing = rng.integers(0, 2, size=g.num_edges).astype(bool)
    u, v = g.edges.T
    # Parallel: (u, v) and (u', v').  Crossing: (u, v') with the bias, and
    # (v, u') with its conjugate, since A[u', v] keeps the u -> v orientation.
    first = np.stack([u, np.where(crossing, v + n, v)], axis=1)
    second = np.stack(
        [np.where(crossing, v, u + n), np.where(crossing, u + n, v + n)], axis=1
    )
    bias = np.concatenate([g.bias, np.where(crossing, g.bias.conj(), g.bias)])
    diagonal = np.concatenate([g.diagonal, g.diagonal])
    block_of = None if g.blocks is None else np.tile(g.block_of, 2)
    return BiasedGraph.from_edges(
        2 * n, np.concatenate([first, second]), bias, diagonal, g.blocks, block_of
    )


# ----------------------------------------------------------------------
# Mutations
# ----------------------------------------------------------------------


def delete_random_edges(g: BiasedGraph, fraction, seed) -> BiasedGraph:
    """Remove round(fraction * m) edges uniformly without replacement."""
    if not 0.0 <= fraction <= 1.0:
        raise QllabError(f"fraction {fraction} outside [0, 1]")
    m = g.num_edges
    k = int(round(fraction * m))
    if k == 0:
        return g
    rng = rng_from(seed, "delete", g.n, m, k)
    keep = np.ones(m, dtype=bool)
    keep[rng.choice(m, size=k, replace=False)] = False
    return replace(g, edges=g.edges[keep], bias=g.bias[keep])


def add_diagonal_disorder(g: BiasedGraph, sigma, seed) -> BiasedGraph:
    """Add independent normal(0, sigma^2) draws to the diagonal."""
    if sigma < 0:
        raise QllabError("sigma must be nonnegative")
    rng = rng_from(seed, "disorder", g.n)
    draws = rng.normal(0.0, sigma, size=g.n) if sigma > 0 else np.zeros(g.n)
    return replace(g, diagonal=g.diagonal + draws)


def disjoint_union(g: BiasedGraph, h: BiasedGraph) -> BiasedGraph:
    """Side-by-side union; h's vertices are shifted by g.n."""
    pairs = np.concatenate([g.edges, h.edges + g.n])
    bias = np.concatenate([g.bias, h.bias])
    diagonal = np.concatenate([g.diagonal, h.diagonal])
    blocks = block_of = None
    if g.blocks is not None and h.blocks is not None:  # a shared name raises in from_edges
        blocks = g.blocks + h.blocks
        block_of = np.concatenate([g.block_of, h.block_of + len(g.blocks)])
    return BiasedGraph.from_edges(g.n + h.n, pairs, bias, diagonal, blocks, block_of)


def connected_components(g: BiasedGraph) -> list:
    """Vertex sets of the connected components (sorted lists)."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def graph_to_json(g: BiasedGraph) -> dict:
    # An object array turns the int64 and float64 columns into Python ints
    # and floats, which json can write.  A partition is written as "labels",
    # a map from each block name to its ascending vertex list.
    columns = (g.edges[:, 0], g.edges[:, 1], g.bias.real, g.bias.imag)
    doc = {
        "n": g.n,
        "edges": np.array(columns, dtype=object).T.tolist(),
        "diagonal": g.diagonal.tolist(),
    }
    if g.blocks is not None:
        doc["labels"] = {
            name: np.flatnonzero(g.block_of == k).tolist() for k, name in enumerate(g.blocks)
        }
    return doc
