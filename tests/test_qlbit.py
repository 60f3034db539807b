import numpy as np
import pytest

from qllab.errors import MissingLabelsError, PolicyInfeasibleError, QllabError
from qllab.graph import GraphGenSpec, rng_from
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
    j_vectors,
    project_two_state,
    qlbit_spec,
)
from qllab.spectral import eigendecompose, emergent_state


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
        g = build_qlbit(qlbit_spec(50, 10, policy=EdgeBudgetFraction(0.2), seed=0))
        # budget = 0.2 * (100 * 10 / 2) = 100
        assert len(cross_edges(g)) == 100

    def test_budget_infeasible(self):
        with pytest.raises(PolicyInfeasibleError):
            build_qlbit(qlbit_spec(6, 4, policy=EdgeBudgetFraction(5.0), seed=0))

    def test_spec_checks_policy_against_its_blocks(self):
        with pytest.raises(PolicyInfeasibleError, match="^policy.fraction: edge budget 90 exceeds"):
            qlbit_spec(6, 3, policy=EdgeBudgetFraction(5.0))  # 36 pairs
        with pytest.raises(PolicyInfeasibleError, match="^policy.degree: "):
            qlbit_spec(6, 3, policy=CrossRegular(7))
        assert qlbit_spec(6, 3, policy=EdgeBudgetFraction(2.0)).connect_policy.budget(18) == 36

    def test_pair_probability_count_scale(self):
        g = build_qlbit(qlbit_spec(50, 10, policy=PairProbability(0.04), seed=1))
        assert 60 <= len(cross_edges(g)) <= 140  # Binomial(2500, .04) within 4 sigma

    def test_cross_regular_degrees(self):
        g = build_qlbit(qlbit_spec(20, 6, policy=CrossRegular(2), seed=2))
        cross_deg = np.bincount(cross_edges(g).ravel(), minlength=g.n)
        assert (cross_deg == 2).all()
        assert (g.degrees() == 8).all()

    def test_cross_regular_needs_equal_blocks(self):
        spec = QLBitSpec(
            sub1=GraphGenSpec("d_regular_random", n=10, d=3, seed=1),
            sub2=GraphGenSpec("d_regular_random", n=12, d=3, seed=2),
            connect_policy=CrossRegular(2),
        )
        with pytest.raises(PolicyInfeasibleError):
            build_qlbit(spec)


class TestBuildQLBit:
    def test_disconnected_when_bias_zero(self):
        g = build_qlbit(qlbit_spec(20, 6, connect_bias=0.0, seed=3))
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
            rows.append([eff.alpha, eff.beta])
        m = np.array(rows)
        assert np.abs(m @ m.T.conj() - np.eye(2)).max() <= 1e-7

    def test_positive_bias_superposition_ensemble(self):
        alphas, betas = [], []
        for seed in range(25):
            g = build_qlbit(qlbit_spec(50, 10, connect_bias=1.0, seed=seed))
            state = emergent_state(eigendecompose(g))
            eff = project_two_state(g, state.eigenvector)
            alphas.append(abs(eff.alpha))
            betas.append(abs(eff.beta))
            assert (eff.alpha.conjugate() * eff.beta).real > 0  # in-phase
        target = 1 / np.sqrt(2)
        assert abs(np.mean(alphas) - target) <= 0.05
        assert abs(np.mean(betas) - target) <= 0.05

    def test_negative_bias_flips_ordering(self):
        for seed in range(10):
            g = build_qlbit(qlbit_spec(50, 10, connect_bias=-1.0, seed=seed))
            state = emergent_state(eigendecompose(g))
            eff = project_two_state(g, state.eigenvector)
            assert (eff.alpha.conjugate() * eff.beta).real < 0  # out-of-phase on top

    def test_pair_probability_fig_caption_form(self):
        g = build_qlbit(qlbit_spec(50, 10, policy=PairProbability(0.2), connect_bias=1.0, seed=4))
        eff = project_two_state(g, emergent_state(eigendecompose(g)).eigenvector)
        assert abs(abs(eff.alpha) - 1 / np.sqrt(2)) <= 0.08
        assert (eff.alpha.conjugate() * eff.beta).real > 0

    def test_block_names(self):
        g = build_qlbit(qlbit_spec(10, 3, seed=1), block_names=("b1", "b2"))
        assert set(g.blocks) == {"b1", "b2"}


class TestProjections:
    def test_j_vectors_small(self):
        spec = QLBitSpec(
            sub1=GraphGenSpec("complete", n=2),
            sub2=GraphGenSpec("complete", n=2),
            connect_bias=0.0,
        )
        g = build_qlbit(spec)
        j1, j2 = j_vectors(g)
        assert np.allclose(j1, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])
        assert np.vdot(j1, j2) == 0
        assert np.linalg.norm(j1) == pytest.approx(1.0)

    def test_missing_labels(self):
        from qllab.graph import gen_cycle

        with pytest.raises(MissingLabelsError):
            j_vectors(gen_cycle(4))

    def test_projection_of_indicator(self):
        g = build_qlbit(qlbit_spec(12, 4, seed=0))
        j1, _ = j_vectors(g)
        eff = project_two_state(g, j1)
        assert eff.alpha == pytest.approx(1.0)
        assert abs(eff.beta) <= 1e-12
        assert eff.residual <= 1e-8

    def test_norm_budget_identity(self):
        g = build_qlbit(qlbit_spec(12, 4, seed=1))
        rng = rng_from(3)
        for _ in range(10):
            w = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
            w /= np.linalg.norm(w)
            eff = project_two_state(g, w)
            total = abs(eff.alpha) ** 2 + abs(eff.beta) ** 2 + eff.residual**2
            assert abs(total - 1.0) <= 1e-8
            # cross-check the residual against the explicit projection
            j1, j2 = j_vectors(g)
            outside = w - np.vdot(j1, w) * j1 - np.vdot(j2, w) * j2
            assert abs(eff.residual - np.linalg.norm(outside)) <= 1e-10

    def test_bulk_states_have_small_uniform_overlap(self):
        vals = []
        for seed in range(8):
            g = build_qlbit(qlbit_spec(30, 8, seed=seed))
            spec = eigendecompose(g)
            mid = spec.n // 2
            for i in (mid - 1, mid, mid + 1):
                eff = project_two_state(g, spec.eigenvectors[:, i])
                vals.append(max(abs(eff.alpha), abs(eff.beta)))
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
            qlbit_spec(10, 3, red_bias=1j)
        with pytest.raises(QllabError, match="^red: "):
            BiasTopology(red=1j, blue=1, conn=1)
        with pytest.raises(QllabError, match="^connect_bias: "):
            qlbit_spec(10, 3, connect_bias=0.5)
        with pytest.raises(QllabError, match="^conn: "):
            BiasTopology(red=1, blue=1, conn=0.5)
        assert qlbit_spec(10, 3, connect_bias=1j, blue_bias=-1.0).blue_bias == -1.0

    def test_regular_qlbit_is_regular(self):
        g = build_regular_qlbit(16, 9, cross_degree=2, seed=5)
        assert (g.degrees() == 9).all()

    @pytest.mark.parametrize("name", list(BLOCH_PROJECTIONS))
    def test_all_six_rows(self, name):
        d, kc = 16, 2
        base = build_regular_qlbit(24, d, cross_degree=kc, seed=7)
        g = apply_bias_topology(base, BLOCH_PROJECTIONS[name])
        spec = eigendecompose(g)
        state = emergent_state(spec, policy="highest_magnitude")
        sign, target = BLOCH_TARGETS[name]
        # x/y rows: eigenvalue exactly +-d; z rows: +-(d - cross_degree)
        expected = d if name[0] != "z" else d - kc
        assert state.eigenvalue == pytest.approx(sign * expected, abs=1e-9)
        window = spec.degeneracy_window()
        members = np.flatnonzero(np.abs(spec.eigenvalues - state.eigenvalue) <= window)
        projected = []
        for i in members:
            eff = project_two_state(g, spec.eigenvectors[:, i])
            projected.append([eff.alpha, eff.beta])
        # |<s, target>|^2 maximized over unit s in the span of the projections
        basis, _ = np.linalg.qr(np.array(projected).T)
        assert np.linalg.norm(basis.conj().T @ target) ** 2 >= 1 - 1e-9

    def test_y_row_orientation_convention(self):
        # connecting bias i must put the +i on the a1 (blue) amplitude
        base = build_regular_qlbit(24, 16, cross_degree=2, seed=9)
        g = apply_bias_topology(base, BLOCH_PROJECTIONS["y+"])
        eff = project_two_state(g, emergent_state(eigendecompose(g)).eigenvector)
        assert eff.alpha / eff.beta == pytest.approx(1j, abs=1e-8)

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
            state = emergent_state(eigendecompose(g))
            assert abs(state.eigenvalue - d) <= 1e-6
            eff = project_two_state(g, state.eigenvector)
            delta = np.angle(eff.alpha / eff.beta) - phi
            delta = (delta + np.pi) % (2 * np.pi) - np.pi
            assert abs(delta) <= 0.05


def test_emergent_pair_orthogonal_in_effective_space():
    overlaps = []
    for seed in range(15):
        g = build_qlbit(qlbit_spec(30, 8, seed=seed))
        spec = eigendecompose(g)
        pair = []
        for i in (0, 1):
            eff = project_two_state(g, spec.eigenvectors[:, i])
            pair.append(eff.normalized())
        overlaps.append(abs(np.vdot(pair[0], pair[1])))
    assert np.mean(overlaps) <= 0.1
