import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qllab.cheeger
from qllab.cheeger import cheeger_bounds, expansion_profile, isoperimetric_exact
from qllab.errors import QllabError, TooLargeError
from qllab.graph import BiasedGraph, GraphGenSpec, gen_complete, gen_cycle
from qllab.spectral import eigenvalues


def assert_sandwich(g, report):
    lower, upper = cheeger_bounds(g)
    assert lower <= report.h + 1e-12
    assert report.h <= upper + 1e-12


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_exact_h_and_bounds(n):
    report = isoperimetric_exact(gen_cycle(n))
    assert report.h == pytest.approx(2 / (n // 2), abs=1e-15)
    assert_sandwich(gen_cycle(n), report)


@pytest.mark.parametrize("n", range(2, 13))
def test_complete_exact_h_and_bounds(n):
    report = isoperimetric_exact(gen_complete(n))
    assert report.h == math.ceil(n / 2)
    assert_sandwich(gen_complete(n), report)


def brute_force(n, pairs):
    """(h, subset, boundary, size) minimizing (b/s, s, vertex list) over all
    subsets of size 1..n//2."""
    best = None
    for size in range(1, n // 2 + 1):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            boundary = sum((u in inside) != (v in inside) for u, v in pairs)
            key = (Fraction(boundary, size), size, list(subset))
            if best is None or key < best[0]:
                best = key, boundary
    (_, size, subset), boundary = best
    return boundary / size, subset, boundary, size


@st.composite
def edge_sets(draw):
    """(n, pairs): any simple graph on 2..11 vertices, edgeless,
    disconnected and irregular ones included."""
    n = draw(st.integers(2, 11))
    upper = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, draw(st.lists(st.sampled_from(upper), unique=True))


@settings(max_examples=150, deadline=None)
@given(edge_sets())
def test_exact_matches_brute_force(graph):
    n, pairs = graph
    g = BiasedGraph.from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    report = isoperimetric_exact(g)
    assert (report.h, report.subset, report.boundary, report.size) == brute_force(n, pairs)


@pytest.mark.parametrize("g, h", [(gen_cycle(22), 2 / 11), (gen_complete(22), 11.0)])
def test_exact_at_the_size_cap(g, h):
    # every half of K_22 ties at 121/11; the lexicographically first wins
    report = isoperimetric_exact(g)
    assert (report.h, report.subset, report.size) == (h, list(range(11)), 11)
    assert_sandwich(g, report)


def test_exact_stops_above_the_size_cap():
    with pytest.raises(TooLargeError):
        isoperimetric_exact(gen_cycle(23))
    (row,) = expansion_profile([GraphGenSpec("cycle", n=23)])
    assert not row.is_exact and math.isnan(row.h)


def test_exact_rejects_a_single_vertex():
    with pytest.raises(QllabError) as info:
        isoperimetric_exact(gen_complete(1))
    assert type(info.value) is QllabError


def test_expansion_profile_solves_each_graph_once(monkeypatch):
    solved = []

    def counting(g):
        solved.append(g.n)
        return eigenvalues(g)

    # the bounds read lambda_1 alone, so the spectrum without eigenvectors
    monkeypatch.setattr(qllab.cheeger, "eigenvalues", counting)
    small, large = expansion_profile(
        [GraphGenSpec("cycle", n=8), GraphGenSpec("complete", n=24)]
    )
    assert solved == [8, 24]
    # the enumeration solves nothing; the bounds are the profile's one solve
    exact = isoperimetric_exact(gen_cycle(8))
    assert solved == [8, 24]
    assert (small.h, small.lower, small.upper, small.is_exact) == (exact.h, *cheeger_bounds(gen_cycle(8)), True)
    assert not large.is_exact and math.isnan(large.h)
    assert large.lower == pytest.approx(12.0) and np.isfinite(large.upper)


@pytest.mark.parametrize("n", [5, 8, 13])
def test_cheeger_bounds_closed_forms(n):
    # C_n: d = 2, lambda_1 = 2 cos(2 pi / n); K_n: d = n - 1, lambda_1 = -1
    gap = 2 - 2 * math.cos(2 * math.pi / n)
    lower, upper = cheeger_bounds(gen_cycle(n))
    assert lower == pytest.approx(gap / 2, abs=1e-12)
    assert upper == pytest.approx(math.sqrt(4 * gap), abs=1e-12)
    lower, upper = cheeger_bounds(gen_complete(n))
    assert lower == pytest.approx(n / 2, abs=1e-12)
    assert upper == pytest.approx(math.sqrt(2 * (n - 1) * n), abs=1e-12)


def test_cheeger_bounds_reject_an_irregular_graph():
    path = BiasedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert cheeger_bounds(path) is None


def test_cheeger_bounds_reject_an_edgeless_graph():
    assert cheeger_bounds(BiasedGraph.from_edges(4, np.empty((0, 2), dtype=np.int64))) is None
    assert cheeger_bounds(gen_complete(1)) is None
