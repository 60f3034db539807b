"""Exact isoperimetric constants on small graphs and spectral sandwich bounds.

The exact minimizer computes the boundary and size of all 2^n vertex
subsets at once, as bitmasks ordered by their highest vertex: for each
vertex k, the masks in [2^k, 2^(k+1)) are the masks below 2^k with k added,
so boundary[2^k:2^(k+1)] = boundary[:2^k] + deg(k) - 2|N(k) & mask| and
size[2^k:2^(k+1)] = size[:2^k] + 1.  That is n whole-array passes plus one
strided pass per edge, with no Python loop over subsets.  No bound or
estimate is ever reported as h: larger graphs get h = NaN, flagged not
exact, next to the spectral sandwich of `cheeger_bounds`, which reads the
degree off the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QllabError, TooLargeError
from .graph import BiasedGraph, build_graph
from .spectral import eigenvalues

# At n = 22 the int16 boundary, int8 size and float32 ratio arrays over all
# 2^22 masks peak at 34 MB (41 MB for K_22, whose 705,432 tied halves are
# listed), and one call takes 0.04 s on C_22 and 0.09 s on K_22 (0.8 ms on
# a 4-regular 16-vertex graph; 2-core Xeon, numpy 2.4).  Each vertex more
# doubles both.
_MAX_EXACT_N = 22


@dataclass
class CheegerReport:
    """Exact isoperimetric data for one graph: h = boundary/size for the
    minimizing subset."""

    h: float
    subset: list
    boundary: int
    size: int


def isoperimetric_exact(g: BiasedGraph) -> CheegerReport:
    """Exact min |boundary(Y)| / |Y| over nonempty Y with |Y| <= n/2.

    Ties are broken toward smaller |Y|, then lexicographically smaller
    vertex lists.  A disconnected graph therefore reports h = 0 with its
    smallest, lexicographically first component.
    """
    n = g.n
    if n < 2:
        raise QllabError(f"the isoperimetric constant needs at least two vertices, got {n}")
    if n > _MAX_EXACT_N:
        raise TooLargeError(f"exact enumeration limited to n <= {_MAX_EXACT_N}")

    lower = [[] for _ in range(n)]
    for j, k in np.sort(g.edges, axis=1).tolist():
        lower[k].append(j)
    deg = g.degrees()

    # Mask m stands for the subset {v : bit v of m is set}.  The masks in
    # [2^k, 2^(k+1)) are the masks below 2^k with k added: k brings its
    # deg[k] edges into the boundary, and each edge to a lower neighbour j
    # already in the subset turns from boundary into inside (-2).
    boundary = np.zeros(1 << n, np.int16)
    size = np.zeros(1 << n, np.int8)
    for k in range(n):
        low, high = 1 << k, 2 << k
        np.add(boundary[:low], int(deg[k]), out=boundary[low:high])
        np.add(size[:low], 1, out=size[low:high])
        for j in lower[k]:
            # axis 1 of this view is bit j of the mask
            boundary[low:high].reshape(-1, 2, 1 << j)[:, 1, :] -= 2

    # With n <= 22, b <= 121 and s <= 11: distinct ratios differ by at least
    # 1/121 and equal ratios round to the same float32, so the float32
    # minimum selects exactly the masks of least b/s.  Mask 0 (the empty
    # subset) and masks over n/2 keep ratio inf.
    ratio = np.full(1 << n, np.inf, np.float32)
    np.divide(boundary[1:], size[1:], out=ratio[1:], where=size[1:] <= n // 2, dtype=np.float32)
    ties = np.flatnonzero(ratio == ratio.min())
    ties = ties[size[ties] == size[ties].min()]
    # Among subsets of one size the lexicographically first vertex list is
    # the one that contains vertex 0 if any does, then vertex 1, and so on.
    for v in range(n):
        with_v = ties[((ties >> v) & 1).astype(bool)]
        if with_v.size:
            ties = with_v
    mask = int(ties[0])
    best_b, best_s = int(boundary[mask]), int(size[mask])

    subset = [v for v in range(n) if (mask >> v) & 1]
    return CheegerReport(
        h=best_b / best_s,
        subset=subset,
        boundary=best_b,
        size=best_s,
    )


def cheeger_bounds(g: BiasedGraph):
    """(lower, upper) of the d-regular spectral sandwich (d - lambda_1)/2 <= h
    <= sqrt(2d(d - lambda_1)), with d read off g.degrees(); None when g has
    no edges or is not regular."""
    deg = g.degrees()
    d = int(deg[0]) if len(deg) else 0
    if d == 0 or np.any(deg != d):
        return None
    lam1 = float(eigenvalues(g)[1])
    gap = d - lam1
    return gap / 2.0, float(np.sqrt(max(0.0, 2.0 * d * gap)))


@dataclass
class ProfileRow:
    n: int
    h: float
    lower: float
    upper: float
    is_exact: bool


def expansion_profile(specs) -> list:
    """Per-graph expansion table for eyeballing family boundedness.

    Graphs small enough for enumeration get the exact h; larger ones get
    h = NaN with is_exact False, since no bound stands in for h.  Every row
    carries the bounds of `cheeger_bounds`, NaN where it gives none, so
    each graph is diagonalized once.  No asymptotic claim is made.
    """
    nan = float("nan")
    rows = []
    for spec in specs:
        g = build_graph(spec)
        lower, upper = cheeger_bounds(g) or (nan, nan)
        exact = g.n <= _MAX_EXACT_N
        h = isoperimetric_exact(g).h if exact else nan
        rows.append(ProfileRow(g.n, h, lower, upper, exact))
    return rows
