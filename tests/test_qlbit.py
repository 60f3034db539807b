from dataclasses import replace

import numpy as np
import pytest

from qllab.errors import InfeasibleDegreeError, MissingLabelsError, PolicyInfeasibleError, QllabError
from qllab.graph import BiasedGraph, block_basis, rng_from
from qllab.qlbit import (
    BLOCH_PROJECTIONS,
    BLOCH_TARGETS,
    BiasTopology,
    CrossRegular,
    EdgeBudgetFraction,
    PairProbability,
    QLBitSpec,
    apply_bias_topology,
    bias_from_token,
    build_qlbit,
    build_regular_qlbit,
    project_two_state,
    regular_qlbit_spec,
)
from qllab.spectral import (
    eigendecompose,
    eigenvalues,
    emergent_state,
    extreme_state,
    quotient,
    quotient_states,
    top_pair,
)


def cross_edges(g, names=("a1", "a2")):
    """Rows of g.edges joining the two blocks."""
    in_blue = g.block_of[g.edges] == g.blocks.index(names[0])
    return g.edges[in_blue[:, 0] != in_blue[:, 1]]


class TestPolicies:
    def test_validation(self):
        with pytest.raises(QllabError):
            PairProbability(1.5)
        with pytest.raises(QllabError):
            EdgeBudgetFraction(-0.1)
        with pytest.raises(QllabError):
            CrossRegular(-1)

    def test_budget_edge_count_exact(self):
        g = build_qlbit(QLBitSpec(50, 10, policy=EdgeBudgetFraction(0.2), seed=0))
        # budget = 0.2 * (100 * 10 / 2) = 100
        assert len(cross_edges(g)) == 100

    def test_budget_infeasible(self):
        with pytest.raises(PolicyInfeasibleError):
            build_qlbit(QLBitSpec(6, 4, policy=EdgeBudgetFraction(5.0), seed=0))

    def test_spec_checks_policy_against_its_blocks(self):
        with pytest.raises(PolicyInfeasibleError, match="^policy.fraction: edge budget 90 exceeds"):
            QLBitSpec(6, 3, policy=EdgeBudgetFraction(5.0))  # 36 pairs
        with pytest.raises(PolicyInfeasibleError, match="^policy.degree: "):
            QLBitSpec(6, 3, policy=CrossRegular(7))
        assert QLBitSpec(6, 3, policy=EdgeBudgetFraction(2.0)).policy.budget(6, 3) == 36

    def test_spec_checks_itself(self):
        # a spec raises when it is made, before any build
        with pytest.raises(InfeasibleDegreeError, match="^d: n\\*d = 15 must be even"):
            QLBitSpec(n=5, d=3)
        with pytest.raises(InfeasibleDegreeError, match="^d: degree 6 infeasible for 6 vertices"):
            QLBitSpec(n=6, d=6)
        with pytest.raises(PolicyInfeasibleError, match="^policy.fraction: edge budget 37 exceeds 36"):
            QLBitSpec(n=6, d=3, policy=EdgeBudgetFraction(37 / 18))
        with pytest.raises(PolicyInfeasibleError, match="^policy.degree: cross degree 7 exceeds block size 6"):
            QLBitSpec(n=6, d=3, policy=CrossRegular(7))
        # so does a spec derived from a valid one
        with pytest.raises(PolicyInfeasibleError, match="^policy.degree: "):
            replace(QLBitSpec(n=6, d=3), policy=CrossRegular(7))
        QLBitSpec(n=6, d=3, policy=EdgeBudgetFraction(2.0))  # all 36 pairs fit

    def test_policy_none_is_the_default_budget(self):
        default = QLBitSpec(6, 3, policy=EdgeBudgetFraction(0.2))
        assert QLBitSpec(6, 3) == QLBitSpec(6, 3, None) == default
        assert replace(default, policy=None) == default

    def test_pair_probability_count_scale(self):
        g = build_qlbit(QLBitSpec(50, 10, policy=PairProbability(0.04), seed=1))
        assert 60 <= len(cross_edges(g)) <= 140  # Binomial(2500, .04) within 4 sigma

    def test_cross_regular_degrees(self):
        g = build_qlbit(QLBitSpec(20, 6, policy=CrossRegular(2), seed=2))
        cross_deg = np.bincount(cross_edges(g).ravel(), minlength=g.n)
        assert (cross_deg == 2).all()
        assert (g.degrees() == 8).all()


class TestBuildQLBit:
    def test_disconnected_when_bias_zero(self):
        g = build_qlbit(QLBitSpec(20, 6, connect_bias=0.0, seed=3))
        assert len(cross_edges(g)) == 0
        spec = eigendecompose(g)
        # both block Perron states sit at d, exactly degenerate
        assert spec.eigenvalues[0] == pytest.approx(6.0, abs=1e-9)
        assert spec.eigenvalues[1] == pytest.approx(6.0, abs=1e-9)
        # the projected top-two states span the full effective 2-space
        rows = []
        for i in (0, 1):
            eff = project_two_state(g, spec.eigenvectors[:, i])
            assert eff.residual <= 1e-7
            rows.append(eff.coefficients)
        m = np.array(rows)
        assert np.abs(m @ m.T.conj() - np.eye(2)).max() <= 1e-7

    def test_positive_bias_superposition_ensemble(self):
        alphas, betas = [], []
        for seed in range(25):
            g = build_qlbit(QLBitSpec(50, 10, connect_bias=1.0, seed=seed))
            alpha, beta = emergent_state(g).state.coefficients
            alphas.append(abs(alpha))
            betas.append(abs(beta))
            assert (alpha.conjugate() * beta).real > 0  # in-phase
        target = 1 / np.sqrt(2)
        assert abs(np.mean(alphas) - target) <= 0.05
        assert abs(np.mean(betas) - target) <= 0.05

    def test_negative_bias_flips_ordering(self):
        for seed in range(10):
            g = build_qlbit(QLBitSpec(50, 10, connect_bias=-1.0, seed=seed))
            alpha, beta = emergent_state(g).state.coefficients
            assert (alpha.conjugate() * beta).real < 0  # out-of-phase on top

    def test_pair_probability_fig_caption_form(self):
        g = build_qlbit(QLBitSpec(50, 10, policy=PairProbability(0.2), connect_bias=1.0, seed=4))
        alpha, beta = emergent_state(g).state.coefficients
        assert abs(abs(alpha) - 1 / np.sqrt(2)) <= 0.08
        assert (alpha.conjugate() * beta).real > 0

    def test_block_names(self):
        g = build_qlbit(QLBitSpec(10, 3, seed=1), block_names=("b1", "b2"))
        assert set(g.blocks) == {"b1", "b2"}


class TestProjections:
    def test_block_basis_small(self):
        g = BiasedGraph.from_edges(4, [(0, 1), (2, 3)], blocks=("a1", "a2"), block_of=[0, 0, 1, 1])
        j = block_basis(g, g.blocks)
        assert np.allclose(j[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])
        assert np.vdot(j[:, 0], j[:, 1]) == 0
        assert np.linalg.norm(j[:, 0]) == pytest.approx(1.0)

    def test_missing_labels(self):
        from qllab.graph import gen_cycle

        with pytest.raises(MissingLabelsError):
            block_basis(gen_cycle(4), ("a1", "a2"))
        with pytest.raises(MissingLabelsError):
            project_two_state(gen_cycle(4), np.ones(4) / 2)

    def test_projection_of_indicator(self):
        g = build_qlbit(QLBitSpec(12, 4, seed=0))
        eff = project_two_state(g, block_basis(g, ("a1",))[:, 0])
        assert eff.coefficients[0] == pytest.approx(1.0)
        assert abs(eff.coefficients[1]) <= 1e-12
        assert eff.residual <= 1e-8

    def test_norm_budget_identity(self):
        g = build_qlbit(QLBitSpec(12, 4, seed=1))
        j1, j2 = block_basis(g, ("a1", "a2")).T
        rng = rng_from(3)
        for _ in range(10):
            w = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
            w /= np.linalg.norm(w)
            eff = project_two_state(g, w)
            total = np.sum(np.abs(eff.coefficients) ** 2) + eff.residual**2
            assert abs(total - 1.0) <= 1e-8
            # cross-check the residual against the explicit projection
            outside = w - np.vdot(j1, w) * j1 - np.vdot(j2, w) * j2
            assert abs(eff.residual - np.linalg.norm(outside)) <= 1e-10

    def test_residual_of_an_exact_state_has_no_cancellation_floor(self):
        # sqrt(1 - |alpha|^2 - |beta|^2) of the top state read 1.05e-8 here
        g = build_regular_qlbit(20, 6, cross_degree=1, seed=8)
        eff = project_two_state(g, eigendecompose(g).eigenvectors[:, 0])
        assert eff.residual <= 1e-13

    def test_bulk_states_have_small_uniform_overlap(self):
        vals = []
        for seed in range(8):
            g = build_qlbit(QLBitSpec(30, 8, seed=seed))
            spec = eigendecompose(g)
            mid = spec.n // 2
            for i in (mid - 1, mid, mid + 1):
                eff = project_two_state(g, spec.eigenvectors[:, i])
                vals.append(np.abs(eff.coefficients).max())
        assert np.mean(vals) <= 0.1


class TestBiasTopology:
    def test_token_parsing(self):
        assert bias_from_token("+1") == 1
        assert bias_from_token("-1") == -1
        assert bias_from_token("i") == 1j
        assert bias_from_token("-i") == -1j
        assert bias_from_token("0") == 0
        with pytest.raises(QllabError):
            bias_from_token("2")

    def test_row_validation(self):
        with pytest.raises(QllabError):
            BiasTopology(red=0.5, blue=1, conn=1)
        with pytest.raises(QllabError):
            BiasTopology(red=1, blue=1, conn=2.0)

    def test_spec_and_row_share_the_bias_rules(self):
        # signs are real +-1 in both; each message leads with its field
        with pytest.raises(QllabError, match="^red_bias: "):
            QLBitSpec(10, 3, red_bias=1j)
        with pytest.raises(QllabError, match="^red: "):
            BiasTopology(red=1j, blue=1, conn=1)
        with pytest.raises(QllabError, match="^connect_bias: "):
            QLBitSpec(10, 3, connect_bias=0.5)
        with pytest.raises(QllabError, match="^conn: "):
            BiasTopology(red=1, blue=1, conn=0.5)
        assert QLBitSpec(10, 3, connect_bias=1j, blue_bias=-1.0).blue_bias == -1.0

    def test_regular_qlbit_is_regular(self):
        g = build_regular_qlbit(16, 9, cross_degree=2, seed=5)
        assert (g.degrees() == 9).all()

    @pytest.mark.parametrize("name", list(BLOCH_PROJECTIONS))
    def test_all_six_rows(self, name):
        d, kc = 16, 2
        base = build_regular_qlbit(24, d, cross_degree=kc, seed=7)
        g = apply_bias_topology(base, BLOCH_PROJECTIONS[name])
        spec = eigendecompose(g)
        state = emergent_state(g)
        sign, target = BLOCH_TARGETS[name]
        # x/y rows: eigenvalue exactly +-d; z rows: +-(d - cross_degree)
        expected = d if name[0] != "z" else d - kc
        assert state.eigenvalue == pytest.approx(sign * expected, abs=1e-9)
        # the quotient reports the target itself, phase included
        quo = quotient(g)
        assert quo.equitable
        ql = extreme_state(quotient_states(g, quo, eigenvalues(g)))
        assert ql.eigenvalue == pytest.approx(sign * expected, abs=1e-12)
        assert np.abs(ql.coefficients - target).max() <= 1e-12
        assert not ql.degenerate
        assert np.array_equal(state.state.coefficients, ql.coefficients)
        window = spec.degeneracy_window()
        members = np.flatnonzero(np.abs(spec.eigenvalues - state.eigenvalue) <= window)
        # top_pair's one vector of the level (on -g for a bottom one) lies in
        # it, also on the x- row, whose level is orthogonal to the Lanczos
        # start 1/sqrt(n), so that top_pair falls back to the full solve
        _, x = top_pair(g if sign > 0 else replace(g, bias=-g.bias, diagonal=-g.diagonal))
        level = spec.eigenvectors[:, members]
        assert np.linalg.norm(level.conj().T @ x) >= 1 - 1e-10
        projected = []
        for i in members:
            projected.append(project_two_state(g, spec.eigenvectors[:, i]).coefficients)
        # |<s, target>|^2 maximized over unit s in the span of the projections
        basis, _ = np.linalg.qr(np.array(projected).T)
        assert np.linalg.norm(basis.conj().T @ target) ** 2 >= 1 - 1e-9

    @pytest.mark.parametrize("name", list(BLOCH_PROJECTIONS))
    def test_row_equals_spec_biases(self, name):
        # a row applied to the regular bit is the bit built with the row's
        # biases in its spec: same edges, biases, diagonal and blocks
        row = BLOCH_PROJECTIONS[name]
        applied = apply_bias_topology(build_regular_qlbit(20, 6, cross_degree=2, seed=3), row)
        spec = replace(
            regular_qlbit_spec(20, 6, 2, seed=3),
            red_bias=row.red,
            blue_bias=row.blue,
            connect_bias=row.conn,
        )
        built = build_qlbit(spec)
        assert np.array_equal(applied.edges, built.edges)
        assert np.array_equal(applied.bias, built.bias)
        assert np.array_equal(applied.diagonal, built.diagonal)
        assert (applied.blocks, applied.block_of.tolist()) == (built.blocks, built.block_of.tolist())

    def test_y_row_orientation_convention(self):
        # connecting bias i must put the +i on the a1 (blue) amplitude
        base = build_regular_qlbit(24, 16, cross_degree=2, seed=9)
        g = apply_bias_topology(base, BLOCH_PROJECTIONS["y+"])
        alpha, beta = emergent_state(g).state.coefficients
        assert alpha / beta == pytest.approx(1j, abs=1e-8)

    def test_conn_zero_removes_cross_edges(self):
        base = build_regular_qlbit(12, 8, cross_degree=1, seed=2)
        g = apply_bias_topology(base, BLOCH_PROJECTIONS["z+"])
        assert len(cross_edges(g)) == 0

    def test_missing_labels_error(self):
        from qllab.graph import gen_cycle

        with pytest.raises(MissingLabelsError):
            apply_bias_topology(gen_cycle(5), BLOCH_PROJECTIONS["x+"])

    def test_equator_sweep_tracks_phase(self):
        # rotating the connecting bias through e^{i phi} rotates the
        # emergent state's relative phase while the eigenvalue stays at d
        d, kc = 10, 2
        base = build_regular_qlbit(20, d, cross_degree=kc, seed=11)
        for phi in np.linspace(0.0, 2 * np.pi, 9, endpoint=False):
            row = BiasTopology(red=1, blue=1, conn=np.exp(1j * phi))
            g = apply_bias_topology(base, row)
            state = emergent_state(g)
            assert abs(state.eigenvalue - d) <= 1e-6
            alpha, beta = state.state.coefficients
            delta = np.angle(alpha / beta) - phi
            delta = (delta + np.pi) % (2 * np.pi) - np.pi
            assert abs(delta) <= 0.05


def test_emergent_pair_orthogonal_in_effective_space():
    overlaps = []
    for seed in range(15):
        g = build_qlbit(QLBitSpec(30, 8, seed=seed))
        spec = eigendecompose(g)
        pair = []
        for i in (0, 1):
            c = project_two_state(g, spec.eigenvectors[:, i]).coefficients
            pair.append(c / np.linalg.norm(c))
        overlaps.append(abs(np.vdot(pair[0], pair[1])))
    assert np.mean(overlaps) <= 0.1


def block_edges(g, name):
    """The edge set of block `name` of g, in its own vertex numbering."""
    verts = np.flatnonzero(g.block_of == g.blocks.index(name))
    inside = np.isin(g.edges, verts).all(axis=1)
    return {tuple(e) for e in (g.edges[inside] - verts[0]).tolist()}


def test_the_two_blocks_of_a_bit_differ():
    g = build_qlbit(QLBitSpec(10, 3))
    assert block_edges(g, "a1") != block_edges(g, "a2")


def test_a_bit_with_another_seed_has_other_blocks():
    bit = QLBitSpec(10, 3, CrossRegular(2), connect_bias=-1.0, seed=1)
    g, h = build_qlbit(bit), build_qlbit(replace(bit, seed=5))
    for name in ("a1", "a2"):
        assert block_edges(g, name) != block_edges(h, name)
