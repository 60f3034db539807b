"""The block quotient: H_eff, equitability, and the QL states read off it.

The dense eigensystem of the whole graph is the oracle: every quotient
state must lie in the eigenspace of its eigenvalue cluster, and the
spectrum outside the QL space must be the spectrum of A compressed to the
orthogonal complement of the block indicators.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qllab.spectral
from qllab.errors import NumericalError, QllabError
from qllab.graph import BiasedGraph, add_diagonal_disorder, gen_cycle, gen_d_regular_random
from qllab.qlbit import (
    BLOCH_PROJECTIONS,
    CrossRegular,
    QLBitSpec,
    apply_bias_topology,
    build_qlbit,
    build_regular_qlbit,
)
from qllab.qlproduct import (
    ProductSpec,
    build_contracted_product,
    contraction_quotient,
    verify_contraction_law,
)
from qllab.spectral import (
    DEGENERACY_TOL,
    EQUITABLE_TOL,
    eigendecompose,
    emergent_quotient_state,
    emergent_state,
    extreme_state,
    quotient,
    quotient_states,
)


def labeled_cycle(n, k):
    """C_n with vertex v in block v mod k."""
    g = gen_cycle(n)
    return BiasedGraph(g.n, g.edges, g.bias, None, tuple(f"b{j}" for j in range(k)), np.arange(n) % k)


def dense_indicators(g):
    """Unit block indicators as the columns of an n x k matrix."""
    j = (g.block_of[:, None] == np.arange(len(g.blocks))[None, :]).astype(float)
    return j / np.sqrt(j.sum(axis=0))


class TestQuotient:
    def test_h_eff_is_j_adjoint_a_j_on_an_equitable_cycle(self):
        g = labeled_cycle(6, 2)  # alternate vertices: every vertex has 2 neighbours in the other block
        quo = quotient(g)
        assert quo.deviation == 0.0 and quo.equitable
        assert np.array_equal(quo.h, [[0.0, 2.0], [2.0, 0.0]])
        j = dense_indicators(g)
        a = g.adjacency()
        assert np.abs(quo.h - j.T @ a @ j).max() <= 1e-14
        assert np.abs(quo.aj - a @ j).max() <= 1e-14

    def test_unequal_sums_give_the_largest_gap_to_the_block_mean(self):
        # blocks {0, 1, 2} and {3, 4}: vertex 2 has one neighbour in block 1, 0 and 1 none
        path = [(0, 1), (1, 2), (2, 3), (3, 4)]
        g = BiasedGraph.from_edges(5, path, blocks=("a1", "a2"), block_of=[0, 0, 0, 1, 1])
        quo = quotient(g)
        # sums into block 1: (0, 0, 1) on block 0, mean 1/3
        assert quo.deviation == pytest.approx(2 / 3, abs=1e-15)
        assert not quo.equitable
        j = dense_indicators(g)
        assert np.abs(quo.h - j.T @ g.adjacency() @ j).max() <= 1e-14
        with pytest.raises(QllabError, match="not equitable"):
            quotient_states(g, quo)

    def test_diagonal_disorder_breaks_equitability(self):
        bit = QLBitSpec(10, 3, policy=CrossRegular(1), seed=2)
        g = build_contracted_product(ProductSpec(qlbits=(bit,), mode="contracted", seed=3))
        assert quotient(g).deviation == 0.0
        assert quotient(add_diagonal_disorder(g, 1e-9, seed=1)).deviation > EQUITABLE_TOL


def _tokens():
    return st.sampled_from([1.0, -1.0, 1j, -1j])


@st.composite
def cross_regular_specs(draw):
    q = draw(st.integers(1, 3))
    n = draw(st.integers(4, 8))
    d = draw(st.integers(2, 3))
    if n * d % 2:
        n += 1
    bits = tuple(
        QLBitSpec(
            n,
            d,
            policy=CrossRegular(draw(st.integers(1, 2))),
            connect_bias=draw(_tokens()),
            red_bias=draw(st.sampled_from([1.0, -1.0])),
            blue_bias=draw(st.sampled_from([1.0, -1.0])),
        )
        for _ in range(q)
    )
    return ProductSpec(qlbits=bits, mode="contracted", seed=draw(st.integers(0, 2**16)))


# q = 2 over 8-vertex, 2-regular blocks: a bulk value lies 2.79e-6 above the
# QL level -1.2360680, inside its 3.24e-6 degeneracy window
BULK_IN_WINDOW = ProductSpec(
    qlbits=(
        QLBitSpec(8, 2, policy=CrossRegular(1), red_bias=1.0, blue_bias=-1.0),
        QLBitSpec(8, 2, policy=CrossRegular(1), red_bias=-1.0, blue_bias=-1.0),
    ),
    mode="contracted",
    seed=8,
)


@settings(max_examples=60, deadline=None)
@given(cross_regular_specs())
@example(BULK_IN_WINDOW)
def test_quotient_states_match_the_dense_eigensystem(spec):
    g = build_contracted_product(spec)
    quo = quotient(g)
    assert quo.equitable
    verify_contraction_law(spec, g, quo)
    assert np.array_equal(quo.h, contraction_quotient(spec))
    values, states = quotient_states(g, quo)
    dense = eigendecompose(g)
    scale = max(1.0, float(np.abs(dense.eigenvalues).max()))
    assert np.abs(values - dense.eigenvalues).max() <= 1e-10 * scale
    window = DEGENERACY_TOL * scale
    j = dense_indicators(g)
    coefficients = np.stack([s.coefficients for s in states], axis=1)
    assert np.abs(coefficients.conj().T @ coefficients - np.eye(len(states))).max() <= 1e-12
    for s in states:
        x = j @ s.coefficients
        cluster = np.abs(dense.eigenvalues - s.eigenvalue) <= window
        v = dense.eigenvectors[:, cluster]
        assert np.linalg.norm(x - v @ (v.conj().T @ x)) <= 1e-10
        assert abs(dense.eigenvalues[s.rank] - s.eigenvalue) <= window
        assert np.count_nonzero(dense.eigenvalues > s.eigenvalue + window) <= s.rank
        assert s.eigen_residual <= 1e-8 * max(1.0, abs(s.eigenvalue))
        magnitude = np.abs(s.coefficients)
        lead = int(np.argmax(magnitude >= magnitude.max() - DEGENERACY_TOL))
        assert s.coefficients[lead].imag == 0.0 and s.coefficients[lead].real > 0
    assert len({s.rank for s in states}) == len(states)
    # the rest of the spectrum is A compressed to the complement of span(J)
    complement = np.linalg.svd(np.eye(g.n) - j @ j.T)[0][:, : g.n - len(states)]
    bulk = np.linalg.eigvalsh(complement.T @ g.adjacency() @ complement)
    for s in states:
        assert s.gap == pytest.approx(float(np.abs(bulk - s.eigenvalue).min()), abs=1e-10 * scale)
        assert s.degenerate == bool(np.any(np.abs(bulk - s.eigenvalue) <= window))
        assert s.multiplicity == np.count_nonzero(np.abs(dense.eigenvalues - s.eigenvalue) <= window)


def test_a_bulk_value_inside_the_window_stays_in_the_bulk():
    g = build_contracted_product(BULK_IN_WINDOW)
    values, states = quotient_states(g, quotient(g))
    state = states[2]
    assert state.eigenvalue == pytest.approx(-1.2360680, abs=1e-7)
    bulk = values[state.rank - 1]  # the bulk value just above it
    assert 0 < bulk - state.eigenvalue <= DEGENERACY_TOL * abs(values).max()
    assert abs(values[state.rank] - state.eigenvalue) <= 1e-12
    assert state.gap == pytest.approx(bulk - state.eigenvalue, rel=1e-6)
    assert state.gap == pytest.approx(2.786e-6, rel=1e-3)
    assert state.degenerate and state.multiplicity == 2


class TestCanonicalBasis:
    def product(self, q, conn=1.0, seed=7):
        bit = QLBitSpec(12, 3, policy=CrossRegular(1), connect_bias=conn)
        return build_contracted_product(ProductSpec(qlbits=(bit,) * q, mode="contracted", seed=seed))

    def test_hypercube_levels_in_the_canonical_basis(self):
        # q = 3, d = 3, c = 1: levels 6, 4 (x3), 2 (x3), 0
        g = self.product(3)
        values, states = quotient_states(g, quotient(g))
        mu = [s.eigenvalue for s in states]
        assert np.allclose(mu, [6, 4, 4, 4, 2, 2, 2, 0], atol=1e-12)
        level = np.stack([s.coefficients for s in states[1:4]], axis=1)
        # Gram-Schmidt of P e_0, P e_1, P e_2, with P the level projector
        signs = [[(-1) ** bin(k & m).count("1") for k in range(8)] for m in (1, 2, 4)]
        walsh = np.array(signs).T / np.sqrt(8)
        projector = walsh @ walsh.T
        expected, r = np.linalg.qr(projector[:, :3])
        expected *= np.sign(np.diag(r))
        # then the phase: the first largest coefficient positive
        for column in expected.T:
            lead = np.flatnonzero(np.abs(column) >= np.abs(column).max() - 1e-9)[0]
            column *= np.sign(column[lead])
        assert np.abs(level - expected).max() <= 1e-12
        ranks = [s.rank for s in states[1:4]]  # consecutive, after any bulk value above 4
        assert ranks == list(range(ranks[0], ranks[0] + 3))
        assert np.count_nonzero(values > 4 + 1e-6) == ranks[0]

    def test_same_basis_on_every_realization(self):
        def coefficients(seed):
            g = self.product(2, 1j, seed=seed)
            return np.array([s.coefficients for s in quotient_states(g, quotient(g))[1]])

        first = coefficients(1)
        for seed in (2, 3, 4):
            assert np.array_equal(coefficients(seed), first)

    def test_a_missing_level_is_a_numerical_error(self, monkeypatch):
        g = self.product(1)
        quo = quotient(g)
        monkeypatch.setattr(qllab.spectral, "eigenvalues", lambda g: np.linspace(-3, 3.5, g.n)[::-1])
        with pytest.raises(NumericalError, match="misses quotient eigenvalue"):
            quotient_states(g, quo)

    def test_a_wrong_quotient_fails_the_residual_gate(self):
        g = self.product(1)
        quo = quotient(g)
        quo.h = quo.h + np.diag([1e-6, 0.0])
        with pytest.raises(NumericalError, match="residual"):
            quotient_states(g, quo)


def test_extreme_state_breaks_ties_toward_the_top_and_the_first_member():
    def states(*mu):
        return [type("S", (), {"eigenvalue": m})() for m in mu]

    assert extreme_state(states(5.0, 1.0, -5.0)).eigenvalue == 5.0
    bottom = states(2.0, -6.0, -6.0)
    assert extreme_state(bottom) is bottom[1]


@pytest.mark.parametrize("name", sorted(BLOCH_PROJECTIONS))
def test_bloch_row_ties_read_as_the_dense_path_reads_them(name):
    # qlbit.csv writes multiplicity > 1 as `degenerate` for a table row:
    # it must agree with emergent_state's flag on the same graph
    g = apply_bias_topology(build_regular_qlbit(16, 6, seed=5), BLOCH_PROJECTIONS[name])
    state = extreme_state(quotient_states(g, quotient(g))[1])
    dense = emergent_state(g)
    assert abs(state.eigenvalue - dense.eigenvalue) <= 1e-12
    assert (state.multiplicity > 1) == dense.degenerate == (name[0] == "z")


@st.composite
def equitable_bits(draw):
    """A Bloch-row bit, or a cross-regular bit with +-1 block biases and a
    connecting bias of 1, -1, i or 0; blocks of 3 to 12 vertices."""
    n = draw(st.integers(3, 12))
    d = draw(st.integers(1, n - 1))
    if n * d % 2:
        d -= 1 if d > 1 else -1
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        cross = draw(st.integers(1, n))
        row = BLOCH_PROJECTIONS[draw(st.sampled_from(sorted(BLOCH_PROJECTIONS)))]
        return apply_bias_topology(build_regular_qlbit(n, d + cross, cross, seed), row)
    return build_qlbit(
        QLBitSpec(
            n,
            d,
            policy=CrossRegular(draw(st.integers(0, n))),
            connect_bias=draw(st.sampled_from([1.0, -1.0, 1j, 0.0])),
            red_bias=draw(st.sampled_from([1.0, -1.0])),
            blue_bias=draw(st.sampled_from([1.0, -1.0])),
            seed=seed,
        )
    )


@settings(max_examples=150, deadline=None)
@given(equitable_bits())
def test_the_emergent_quotient_state_is_the_extreme_quotient_state(g):
    # what `qlbit` reports for an equitable bit, bit for bit, and its
    # `degenerate` column, whether the Cholesky proof or the spectrum read it
    quo = quotient(g)
    mu, coefficients, degenerate = emergent_quotient_state(g, quo)
    state = extreme_state(quotient_states(g, quo)[1])
    assert mu == state.eigenvalue
    assert np.array_equal(coefficients, state.coefficients)
    assert degenerate == (state.multiplicity > 1)


def test_two_copies_of_one_regular_graph_read_degenerate():
    one = gen_d_regular_random(10, 3, seed=4)
    assert not emergent_state(one).degenerate
    edges = np.concatenate([one.edges, one.edges + 10])
    two = BiasedGraph.from_edges(20, edges, None, None, ("a1", "a2"), np.repeat([0, 1], 10))
    state = emergent_state(two)  # the top pair and one Cholesky
    assert state.eigenvalue == pytest.approx(3.0, abs=1e-12) and state.degenerate
    mu, _, degenerate = emergent_quotient_state(two, quotient(two))  # a tied H_eff level
    assert mu == 3.0 and degenerate


def test_a_mixed_sign_cross_regular_bit_takes_the_fallback(monkeypatch):
    # red -1 and blue +1 put the levels at +-sqrt(D^2 + c^2), inside the
    # Gershgorin bound D + c, so the spectrum must place them
    g = build_qlbit(QLBitSpec(8, 3, CrossRegular(1), red_bias=-1.0, blue_bias=1.0, seed=2))
    solve = qllab.spectral.quotient_states
    calls = []
    monkeypatch.setattr(qllab.spectral, "quotient_states", lambda *a: calls.append(1) or solve(*a))
    mu, coefficients, degenerate = emergent_quotient_state(g, quotient(g))
    assert calls == [1]
    assert mu == pytest.approx(np.sqrt(10.0), abs=1e-12)
    state = extreme_state(solve(g, quotient(g))[1])
    assert np.array_equal(coefficients, state.coefficients) and degenerate == (state.multiplicity > 1)
