"""Exact isoperimetric constants on small graphs and spectral sandwich bounds.

The exact minimizer enumerates all vertex subsets of size at most n/2 in
Gray-code order, updating the boundary incrementally (one vertex toggles per
step), which keeps n = 22 tractable.  No heuristic estimate is ever reported
as the exact constant; larger graphs get the spectral lower bound as a
clearly flagged proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotRegularError, TooLargeError
from .graph import BiasedGraph, build_graph, connected_components
from .spectral import eigendecompose

_MAX_EXACT_N = 22


@dataclass
class CheegerReport:
    """Exact isoperimetric data for one graph.

    h = boundary/size for the minimizing subset; the bounds are the
    d-regular spectral sandwich (d - lambda_1)/2 <= h <= sqrt(2d(d - lambda_1))
    and are None when the graph is not regular.
    """

    h: float
    subset: list
    boundary: int
    size: int
    lower_bound: float = None
    upper_bound: float = None


def _subset_from_mask(mask: int, n: int):
    return [v for v in range(n) if (mask >> v) & 1]


def isoperimetric_exact(g: BiasedGraph) -> CheegerReport:
    """Exact min |boundary(Y)| / |Y| over nonempty Y with |Y| <= n/2.

    Ties are broken toward smaller |Y|, then lexicographically smaller
    vertex lists.  A disconnected graph reports h = 0 with its smallest
    component as the empty-boundary witness.
    """
    n = g.n
    if n < 2:
        raise TooLargeError("need at least two vertices")
    if n > _MAX_EXACT_N:
        raise TooLargeError(f"exact enumeration limited to n <= {_MAX_EXACT_N}")

    comps = connected_components(g)
    if len(comps) > 1:
        witness = min(comps, key=len)
        return _with_bounds(g, CheegerReport(0.0, witness, 0, len(witness)))

    adj_mask = [0] * n
    for u, v in g.edges.tolist():
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    deg = [adj_mask[v].bit_count() for v in range(n)]

    half = n // 2
    best_b, best_s, best_mask = None, None, None
    mask = 0
    size = 0
    boundary = 0
    # Reflected Gray code: step i toggles the bit position of the lowest
    # set bit of i.
    for i in range(1, 1 << n):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            size -= 1
            inside = (adj_mask[v] & mask).bit_count()
            boundary -= deg[v] - 2 * inside
        else:
            inside = (adj_mask[v] & mask).bit_count()
            boundary += deg[v] - 2 * inside
            mask ^= bit
            size += 1
        if not 1 <= size <= half:
            continue
        if best_b is None:
            better = True
        else:
            lhs, rhs = boundary * best_s, best_b * size
            better = lhs < rhs or (
                lhs == rhs
                and (
                    size < best_s
                    or (
                        size == best_s
                        and _subset_from_mask(mask, n) < _subset_from_mask(best_mask, n)
                    )
                )
            )
        if better:
            best_b, best_s, best_mask = boundary, size, mask

    report = CheegerReport(
        h=best_b / best_s,
        subset=_subset_from_mask(best_mask, n),
        boundary=best_b,
        size=best_s,
    )
    return _with_bounds(g, report)


def _regular_degree(g: BiasedGraph):
    deg = g.degrees()
    if len(deg) and np.all(deg == deg[0]):
        return int(deg[0])
    return None


def _with_bounds(g, report: CheegerReport) -> CheegerReport:
    d = _regular_degree(g)
    if d is not None and d > 0:
        lower, upper = cheeger_bounds(g, d)
        report.lower_bound = lower
        report.upper_bound = upper
    return report


def cheeger_bounds(g: BiasedGraph, d: int):
    """Spectral sandwich ((d - lambda_1)/2, sqrt(2d(d - lambda_1))).

    Raises NotRegularError when some vertex does not have degree d.
    """
    deg = g.degrees()
    if not np.all(deg == d):
        bad = int(np.argmax(deg != d))
        raise NotRegularError(f"vertex {bad} has degree {int(deg[bad])}, expected {d}")
    lam1 = float(eigendecompose(g).eigenvalues[1])
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

    Graphs small enough for enumeration get the exact h with the bounds of
    the exact report; larger ones report the spectral lower bound as a
    proxy with is_exact False.  Bounds of an irregular graph are NaN.  Each
    graph is diagonalized once.  No asymptotic claim is made.
    """
    nan = float("nan")
    rows = []
    for spec in specs:
        g = build_graph(spec)
        if g.n <= _MAX_EXACT_N:
            report = isoperimetric_exact(g)
            lower = nan if report.lower_bound is None else report.lower_bound
            upper = nan if report.upper_bound is None else report.upper_bound
            rows.append(ProfileRow(g.n, report.h, lower, upper, True))
        else:
            d = _regular_degree(g)
            lower, upper = cheeger_bounds(g, d) if d else (nan, nan)
            rows.append(ProfileRow(g.n, lower, lower, upper, False))
    return rows
