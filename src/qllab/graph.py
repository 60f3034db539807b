"""Complex-edge-biased graphs: containers, generators, and mutations.

A graph stores its edge set as two canonical arrays: `edges`, the (m, 2)
vertex pairs with u < v on every row, sorted lexicographically, and `bias`,
the adjacency entries A[u, v].  The conjugate entry A[v, u] is implied, so
every graph is Hermitian by construction.  `BiasedGraph.from_edges` is the
only place that orients, sorts and validates an edge list, by one stable
sort of the integer keys u * n + v, which it skips when the keys already
increase strictly (a generator's sorted keys, or a disjoint union's
offset parts); generators and compositions hand it concatenated, offset
arrays.  The arrays and the diagonal are read-only, so an operation that
keeps or subsets a canonical edge set shares them through
`dataclasses.replace` instead of copying.  All randomized operations take
an explicit seed and derive a private generator from it.

The random samplers draw a pairing of vertex stubs and repair it round by
round; they keep each edge as the integer key u * n + v in a set and
return the sorted keys, which the generators split back into pairs.

`BiasedGraph.adjacency` builds the dense matrix, into a caller's array
when given one (`spectral` keeps one for its full solves, `kuramoto`
writes its aligned coupling matrix); `BiasedGraph.operator`
(from `edge_operator`) applies it off the edge arrays in O(m), and is the
one sparse path: `spectral.top_pair`, its O(m) bound and the check of a
full product's operator all read the graph through it.

A labeled graph also carries a partition into the named blocks (a1, a2,
a1b2, ...) whose indicators span the QL state space: `blocks`, the tuple
of names, and `block_of`, each vertex's index into `blocks`.  An owner
array puts every vertex in exactly one block, so the partition needs no
overlap or cover check, only a range check.  `block_basis` is the one
place that builds the unit block indicators J, and `project_blocks` the one
projection onto them: every reading of a vector in the block basis, for one
QL bit or a product of q bits, goes through it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

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
            if self.block_of.shape != (self.n,) or (
                self.n and not 0 <= self.block_of.min() <= self.block_of.max() < k
            ):
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
        m = len(pairs)
        bias = np.ones(m, dtype=complex) if bias is None else np.asarray(bias, dtype=complex)
        if bias.shape != (m,):
            raise QllabError(f"need one bias per pair, got shape {bias.shape}")
        u, v = pairs.T
        flip = u > v
        flipped = bool(flip.any())
        lo, hi = (np.where(flip, v, u), np.where(flip, u, v)) if flipped else (u, v)
        if m and (lo.min() < 0 or hi.max() >= n):
            u, v = pairs[np.argmax((lo < 0) | (hi >= n))]
            raise QllabError(f"edge ({u}, {v}) out of range for n={n}")
        loops = lo == hi
        if loops.any():
            raise QllabError(f"self loop at vertex {lo[loops.argmax()]}")
        if flipped:
            bias = np.where(flip, bias.conj(), bias)
        # the keys u * n + v order the rows as a lexicographic sort would;
        # keys that already increase strictly are sorted and hold no
        # duplicate, so only other inputs take the stable sort
        keys = lo * n + hi
        if not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys, lo, hi, bias = keys[order], lo[order], hi[order], bias[order]
            dup = keys[1:] == keys[:-1]
            if dup.any():
                k = dup.argmax()
                raise QllabError(f"duplicate edge ({lo[k]}, {hi[k]})")
        if lo is not u:  # reoriented or reordered
            pairs = np.stack([lo, hi], axis=1)
        if not bias.all():
            k = np.argmax(bias == 0)
            raise QllabError(f"zero bias on edge ({lo[k]}, {hi[k]})")
        return cls(n, pairs, bias, diagonal, blocks, block_of)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def entries(self) -> np.ndarray:
        """The adjacency entries A[u, v] of `edges`: `bias`, or its real
        part when no bias has an imaginary part, so that every dense or
        applied form of a real graph is real."""
        return self.bias if np.any(self.bias.imag) else self.bias.real

    def degrees(self) -> np.ndarray:
        """Per-vertex edge count (bias values ignored)."""
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def adjacency(self, out=None) -> np.ndarray:
        """Dense Hermitian adjacency matrix, diagonal included.

        In the dtype of `entries`.  With `out`, a writable C-contiguous
        (n, n) array of that dtype, the matrix is written into it after
        zeroing it, and `out` is returned; any other `out` raises QllabError.
        """
        bias = self.entries
        shape = (self.n, self.n)
        if out is None:
            a = np.zeros(shape, dtype=bias.dtype)
        elif (
            not isinstance(out, np.ndarray)
            or out.shape != shape
            or out.dtype != bias.dtype
            or not (out.flags.c_contiguous and out.flags.writeable)
        ):
            raise QllabError(
                f"out must be a writable C-contiguous {shape} {bias.dtype} array"
            )
        else:
            a = out
            a.fill(0)
        u, v = self.edges.T
        a[u, v] = bias
        a[v, u] = bias.conj()
        a[np.diag_indices(self.n)] = self.diagonal
        return a

    def operator(self):
        """The map x -> A x, diagonal included, read off the edge arrays.

        x is a vector or an (n, c) array of c vectors; each call costs O(m)
        (O(m c)).  A x is real when x is real and no bias has an imaginary
        part.
        """
        return edge_operator(self.n, self.edges, self.entries, self.diagonal)


def edge_operator(n, edges, weights, diagonal=None):
    """The map x -> A x for the n x n Hermitian A with A[u, v] = weights
    and A[v, u] = conj(weights) on the rows (u, v) of edges, plus the
    diagonal (none when None).

    Each call is one gather and one bincount over the rows and their
    mirrors, real and imaginary parts apart; x is a vector or an (n, c)
    array.
    """
    u, v = edges.T
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    weights = np.concatenate([weights, weights.conj()])
    if diagonal is not None and not diagonal.any():
        diagonal = None

    def apply(x):
        x = np.asarray(x)
        if x.ndim == 2:
            # entry (i, j) of an (n, c) array is entry i * c + j of its ravel
            c = x.shape[1]
            index = (rows[:, None] * c + np.arange(c)).ravel()
            terms = (weights[:, None] * x[cols]).ravel()
        else:
            c, index, terms = 1, rows, weights * x[cols]
        y = _summed(index, terms, n * c).reshape(x.shape)
        if diagonal is not None:
            y += (diagonal if x.ndim == 1 else diagonal[:, None]) * x
        return y

    return apply


def _summed(index, terms, size) -> np.ndarray:
    """np.bincount(index, terms, size) for real or complex terms, in floats
    (bincount gives int64 zeros when there are no terms)."""
    if np.iscomplexobj(terms):
        return _summed(index, terms.real, size) + 1j * _summed(index, terms.imag, size)
    return np.asarray(np.bincount(index, terms, size), dtype=float)


def block_basis(g: BiasedGraph, names) -> np.ndarray:
    """The unit indicators J of the blocks `names`, one column per name.

    Column i is 1/sqrt(size) on the vertices of block names[i], read off
    `block_of`, and 0 elsewhere, so the columns are orthonormal.  A name
    the graph's partition lacks raises MissingLabelsError.
    """
    for name in names:
        if g.blocks is None or name not in g.blocks:
            raise MissingLabelsError(f"block {name!r} missing from labels {g.blocks}")
    k = np.array([g.blocks.index(name) for name in names], dtype=np.int64)
    sizes = np.bincount(g.block_of, minlength=len(g.blocks))[k]
    return (g.block_of[:, None] == k) / np.sqrt(sizes)


@dataclass
class EffectiveState:
    """A vector w read in the block basis J of the blocks it was projected on.

    coefficients is c = J^H w, one per block in that order; residual is
    ||w - J c||, the norm of w outside span(J), so |c|^2 + residual^2 = ||w||^2.
    """

    coefficients: np.ndarray
    residual: float


def project_blocks(g: BiasedGraph, names, w):
    """Project w onto the unit indicators of the blocks `names`.

    A matrix w is read as vectors in its columns and gives a list of
    states, one per column, from one J.
    """
    j = block_basis(g, names)

    def one(v):
        c = j.T @ v
        # ||v - J c|| itself: sqrt(||v||^2 - ||c||^2) cancels to a floor of
        # about 1.5e-8
        return EffectiveState(c.astype(complex), float(np.linalg.norm(v - j @ c)))

    w = np.asarray(w)
    if w.ndim == 1:
        return one(w)
    return [one(w[:, i]) for i in range(w.shape[1])]


@dataclass(frozen=True)
class GraphGenSpec:
    """Recipe for a deterministic graph sample.

    Each kind sets exactly the fields it reads, the rest None: 'cycle' and
    'complete' read `n`, 'd_regular_random' and 'bipartite_d_regular' (n per
    side) `n` and `d`, and 'two_lift' `base`.  Every kind takes a seed; only
    the random ones, all but 'cycle' and 'complete', draw from it.
    """

    kind: str
    n: int = None
    d: int = None
    seed: int = 0
    base: "GraphGenSpec" = None

    def __post_init__(self):
        # Each message starts with the field it names, so the CLI can
        # prefix the config path.
        if not isinstance(self.kind, str) or self.kind not in _READS:
            raise QllabError(f"kind: unknown graph kind {self.kind!r}")
        for name in ("n", "d", "base"):
            if (getattr(self, name) is None) == (name in _READS[self.kind]):
                verb = "takes no" if getattr(self, name) is not None else "needs"
                raise QllabError(f"{name}: a {self.kind} graph {verb} {name}")
        if self.kind != "two_lift":
            _check_size(self.kind, self.n, self.d)


# the fields besides seed that each graph kind reads.  Only
# d_regular_random builds a benchmarked graph; the other kinds stay as
# closed-form oracles for the tests: cycle and complete graphs for the
# `cheeger` and `spectrum` tests, a two-lift's spectrum holding its base's,
# and a bipartite graph's symmetric spectrum.
_READS = {
    "d_regular_random": ("n", "d"),
    "cycle": ("n",),
    "complete": ("n",),
    "bipartite_d_regular": ("n", "d"),
    "two_lift": ("base",),
}


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


def _pairing_attempt(n, d, rng):
    """One configuration-model attempt with stub repair: the set of keys
    u * n + v (u < v) of its edges, or None on a dead end."""
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
        shuffled = stubs.tolist()
        for u, v in zip(shuffled[0::2], shuffled[1::2]):
            if u > v:
                u, v = v, u
            key = u * n + v
            if u == v or key in edges:
                leftover.append(u)
                leftover.append(v)
            else:
                edges.add(key)
                progressed = True
        if leftover and not progressed:
            # Dead end unless some leftover pair is still placeable.
            values = sorted(set(leftover))
            ok = any(
                values[i] * n + values[j] not in edges
                for i in range(len(values))
                for j in range(i + 1, len(values))
            )
            if not ok:
                return None
        stubs = np.array(leftover, dtype=int)
    return edges


def _sorted_keys(keys) -> np.ndarray:
    """A set of int keys as an ascending int64 array."""
    keys = np.fromiter(keys, dtype=np.int64, count=len(keys))
    # the stable sort of `from_edges`: np.sort's first call would page in
    # about 0.4 MB of other sort code
    return keys[keys.argsort(kind="stable")]


def _sample_regular_pairs(n, d, rng) -> np.ndarray:
    """Ascending keys u * n + v (u < v) of the edges of a uniform-ish random
    d-regular simple graph."""
    if d > (n - 1) // 2:
        # Dense regime: sample the complement (empty for d = n - 1) instead.
        u, v = np.triu_indices(n, 1)
        removed = _sample_regular_pairs(n, n - 1 - d, rng)
        return np.setdiff1d(u * n + v, removed, assume_unique=True)
    for _ in range(_MAX_RESTARTS):
        edges = _pairing_attempt(n, d, rng)
        if edges is not None:
            return _sorted_keys(edges)
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
    keys = _sample_regular_pairs(n, d, rng)
    assert len(keys) == n * d // 2
    return BiasedGraph.from_edges(n, np.stack(np.divmod(keys, n), axis=1))


def gen_cycle(n) -> BiasedGraph:
    _check_size("cycle", n)
    i = np.arange(n)
    return BiasedGraph.from_edges(n, np.stack([i, (i + 1) % n], axis=1))


def gen_complete(n) -> BiasedGraph:
    _check_size("complete", n)
    return BiasedGraph.from_edges(n, np.stack(np.triu_indices(n, 1), axis=1))


def _bipartite_attempt(n, k, rng):
    """One bipartite pairing attempt with repair: the set of keys i * n + j
    of its pairs (i, j), both in 0..n-1, or None on a dead end."""
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
        for i, j in zip(left.tolist(), right.tolist()):
            key = i * n + j
            if key in pairs:
                next_left.append(i)
                next_right.append(j)
            else:
                pairs.add(key)
                progressed = True
        if next_left and not progressed:
            ls, rs = sorted(set(next_left)), sorted(set(next_right))
            if not any(a * n + b not in pairs for a in ls for b in rs):
                return None
        left = np.array(next_left, dtype=int)
        right = np.array(next_right, dtype=int)
    return pairs


def sample_biregular_pairs(n, k, rng) -> np.ndarray:
    """Ascending keys i * n + j of the pairs (i, j) of a random k-regular
    bipartite graph on n+n vertices."""
    if k > n // 2:
        # Sample the complement (empty for k = n) instead.
        removed = sample_biregular_pairs(n, n - k, rng)
        return np.setdiff1d(np.arange(n * n), removed, assume_unique=True)
    for _ in range(_MAX_RESTARTS):
        pairs = _bipartite_attempt(n, k, rng)
        if pairs is not None:
            return _sorted_keys(pairs)
    raise RetryExhaustedError(
        f"bipartite sampler failed after {_MAX_RESTARTS} restarts (n={n}, k={k})"
    )


def gen_bipartite_d_regular(n_per_side, d, seed) -> BiasedGraph:
    """Random bipartite d-regular graph; sides are 0..n-1 and n..2n-1."""
    _check_size("bipartite_d_regular", n_per_side, d)
    rng = rng_from(seed, "bipartite", n_per_side, d)
    i, j = np.divmod(sample_biregular_pairs(n_per_side, d, rng), n_per_side)
    return BiasedGraph.from_edges(2 * n_per_side, np.stack([i, j + n_per_side], axis=1))


def two_lift(g: BiasedGraph, seed) -> BiasedGraph:
    """Random 2-lift: each edge lifts to a parallel or a crossing pair, with
    probability 1/2 each.  Vertex u's mirror copy is u + n."""
    n = g.n
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
