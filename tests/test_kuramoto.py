import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qllab.errors import NumericalError, QllabError
from qllab.graph import BiasedGraph, gen_complete, gen_d_regular_random, rng_from
from qllab.kuramoto import (
    OscillatorState,
    SyncRunConfig,
    _default_dt,
    _realization_graph,
    _stepper,
    coupling_matrix,
    initial_state,
    order_parameter,
    phase_transform,
    run_sync_experiment,
    step,
)
from qllab.qlbit import CrossRegular, QLBitSpec
from qllab.qlproduct import ProductSpec, build_product
from qllab.spectral import eigendecompose


def two_bit_spec(seed=0):
    bits = tuple(QLBitSpec(8, 3, policy=CrossRegular(1), seed=(seed, t)) for t in range(2))
    return ProductSpec(qlbits=bits, mode="contracted", seed=seed)


def phased_product(seed=0):
    """A two-bit product with a random phase on every edge bias.

    The product's own biases are gauge-equivalent to real ones; random
    phases make the eigenvectors genuinely complex, so that the density
    matrices tell exp(-i theta) from exp(+i theta).
    """
    g = build_product(two_bit_spec(seed))
    rng = rng_from(seed, "edge_phases")
    return replace(g, bias=g.bias * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=g.num_edges)))


def density(w):
    return np.outer(w, w.conj())


def reference_run(cfg):
    """The per-record solve: phase-transform, diagonalize, average rho."""
    n = _realization_graph(cfg, 0).n
    steps = max(1, int(round(cfg.t_end / cfg.dt)))
    record_at = list(range(0, steps + 1, cfg.record_every))
    if record_at[-1] != steps:
        record_at.append(steps)
    r_sum, top_sum = np.zeros(len(record_at)), np.zeros(len(record_at))
    rhos = [0.0] * len(record_at)
    for r in range(cfg.realizations):
        g = _realization_graph(cfg, r)
        state = initial_state(n, cfg, rng_from(cfg.seed, "init", r))
        for k in range(steps + 1):
            if k in record_at:
                i = record_at.index(k)
                spec = eigendecompose(phase_transform(g, state))
                w = spec.eigenvectors[:, 0].astype(complex)
                rhos[i] = rhos[i] + density(w)
                r_sum[i] += order_parameter(state.theta)
                top_sum[i] += spec.eigenvalues[0]
            if k < steps:
                state = step(state, g, cfg.K, cfg.dt)
    purity = [np.trace(rho @ rho).real / cfg.realizations**2 for rho in rhos]
    return (
        np.array([k * cfg.dt for k in record_at]),
        r_sum / cfg.realizations,
        np.array(purity),
        top_sum / cfg.realizations,
    )


class TestClosedForm:
    def test_record_vector_matches_phase_transform_solve(self):
        g = phased_product(3)
        theta = rng_from(7, "theta").uniform(0.0, 2.0 * np.pi, size=g.n)
        state = OscillatorState(theta=theta, epsilon=np.zeros(g.n))
        base = eigendecompose(g)
        solved = eigendecompose(phase_transform(g, state))
        # the top eigenvalue is simple, so its eigenvector is defined up to phase
        assert base.eigenvalues[0] - base.eigenvalues[1] > 1e-3
        w = np.exp(-1j * theta) * base.eigenvectors[:, 0]
        assert np.abs(density(w) - density(solved.eigenvectors[:, 0])).max() < 1e-12
        assert solved.eigenvalues[0] == pytest.approx(base.eigenvalues[0], abs=1e-12)

    @pytest.mark.parametrize("graph", [two_bit_spec(), phased_product()], ids=["spec", "phased"])
    @pytest.mark.parametrize("realizations", [1, 3], ids=["1-False", "3-False"])
    def test_run_matches_per_record_solve(self, graph, realizations):
        cfg = SyncRunConfig(
            graph=graph,
            K=2.0,
            t_end=1.0,
            dt=0.05,
            realizations=realizations,
            seed=11,
            record_every=4,
        )
        result = run_sync_experiment(cfg)
        t, r, purity, top = reference_run(cfg)
        assert np.array_equal(result.t, t)
        assert np.allclose(result.order_parameter, r, rtol=0, atol=1e-12)
        assert np.allclose(result.purity, purity, rtol=0, atol=1e-12)
        assert np.allclose(result.eigenvalue_top, top, rtol=0, atol=1e-12)
        assert np.all((result.purity > 0) & (result.purity <= 1 + 1e-12))
        if realizations == 3:
            # distinct phases give a genuinely mixed ensemble state
            assert result.purity.max() < 0.99


def test_records_keep_no_n_by_n_density_matrix():
    # the `sync` benchmark size: N = 144 vertices and 13 records, whose
    # n x n density matrices alone would take 13 * 144^2 * 16 B = 4.3 MB
    bit = QLBitSpec(36, 6, policy=CrossRegular(1))
    cfg = SyncRunConfig(graph=ProductSpec(qlbits=(bit, bit), mode="contracted"), K=4.0, t_end=10.0, record_every=25)
    tracemalloc.start()
    try:
        result = run_sync_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, records = 144, len(result.t)
    assert records == 13
    assert peak < records * n * n * 16


@pytest.mark.parametrize("phased", [False, True], ids=["real", "complex"])
def test_coupling_matrix_is_the_aligned_magnitude_of_the_adjacency(phased):
    g = phased_product(3) if phased else build_product(two_bit_spec(3))
    g = replace(g, diagonal=rng_from(3, "eps").normal(0.0, 1.0, g.n))
    expected = np.abs(g.adjacency())
    np.fill_diagonal(expected, 0.0)
    m = coupling_matrix(g)
    assert np.array_equal(m, expected) and m.ctypes.data % 64 == 0


@pytest.mark.parametrize("phased", [False, True], ids=["real", "complex"])
def test_coupling_matrix_makes_one_n_by_n_array(phased):
    # the adjacency is written straight into M: the traced peak is M's
    # n^2 * 8 B (and its 64 alignment bytes), not 2x for a real adjacency
    # and 3x for a complex one
    n = 400
    g = gen_d_regular_random(n, 6, seed=1)
    if phased:
        g = replace(g, bias=np.exp(1j * rng_from(1, "phases").uniform(0.0, 2.0 * np.pi, g.num_edges)))
    tracemalloc.start()
    try:
        coupling_matrix(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n * n * 8 <= peak < 1.1 * n * n * 8


def test_full_mode_realizations_draw_fresh_blocks():
    bits = tuple(QLBitSpec(6, 3, seed=t) for t in range(2))
    cfg = SyncRunConfig(graph=ProductSpec(qlbits=bits, mode="full"), K=1.0, t_end=0.1, seed=5)

    def intra_block_edges(g):
        side = g.block_of[g.edges]
        return g.edges[side[:, 0] == side[:, 1]]

    first, second = (intra_block_edges(_realization_graph(cfg, r)) for r in (0, 1))
    assert not np.array_equal(first, second)


def two_oscillators():
    return BiasedGraph.from_edges(2, [(0, 1)])


class TestDynamics:
    def test_uncoupled_oscillators_drift_at_their_frequency(self):
        # epsilon must be mean-free, so a lone oscillator would not drift;
        # two uncoupled ones with opposite offsets each follow theta0 + eps t
        g = BiasedGraph(n=2)
        theta0, eps = np.array([0.3, 1.1]), np.array([0.25, -0.25])
        s = OscillatorState(theta=theta0, epsilon=eps)
        for _ in range(40):
            s = step(s, g, K=0.0, dt=0.05)
        assert s.t == pytest.approx(2.0)
        assert np.allclose(s.theta, theta0 + eps * s.t, rtol=0, atol=1e-12)

    def test_strong_coupling_synchronizes(self):
        cfg = SyncRunConfig(graph=gen_complete(12), K=12.0, t_end=3.0, seed=4)
        result = run_sync_experiment(cfg)
        assert result.order_parameter[0] < 0.9
        assert result.order_parameter[-1] > 0.999

    def test_too_large_dt_raises(self):
        state = OscillatorState(theta=np.array([0.0, np.pi / 2]), epsilon=np.zeros(2))
        # |theta_dot| = K/2 = 5, so dt = 1 moves a phase by more than pi
        with pytest.raises(NumericalError):
            step(state, two_oscillators(), K=10.0, dt=1.0)
        with pytest.raises(NumericalError):
            run_sync_experiment(
                SyncRunConfig(graph=two_oscillators(), K=10.0, t_end=2.0, dt=1.0)
            )

    @pytest.mark.parametrize("integrator, ratio", [("rk4", 16.0)])
    def test_convergence_order(self, integrator, ratio):
        # two coupled oscillators with K = 1: psi = theta_1 - theta_0 obeys
        # psi' = -sin(psi), so tan(psi / 2) = tan(psi_0 / 2) exp(-t)
        g, psi0, t_end = two_oscillators(), 2.0, 1.0
        psi_exact = 2.0 * np.arctan(np.tan(psi0 / 2.0) * np.exp(-t_end))

        def error(dt):
            s = OscillatorState(theta=np.array([-psi0 / 2, psi0 / 2]), epsilon=np.zeros(2))
            for _ in range(int(round(t_end / dt))):
                s = step(s, g, K=1.0, dt=dt)
            return abs((s.theta[1] - s.theta[0]) - psi_exact)

        observed = error(0.1) / error(0.05)
        assert ratio * 0.8 < observed < ratio * 1.2


def _rhs(theta, epsilon, m, k_over_n):
    s, c = np.sin(theta), np.cos(theta)
    # sum_j m_ij sin(theta_j - theta_i) = cos_i (M sin)_i - sin_i (M cos)_i
    return epsilon + k_over_n * (c * (m @ s) - s * (m @ c))


def _advance(theta, epsilon, m, k_over_n, dt):
    """One RK4 step in the textbook form: the oracle `_stepper` must match within `ORACLE_TOL`."""
    k1 = _rhs(theta, epsilon, m, k_over_n)
    if np.abs(k1).max() * dt > np.pi:
        raise NumericalError("integrator unstable")
    k2 = _rhs(theta + 0.5 * dt * k1, epsilon, m, k_over_n)
    k3 = _rhs(theta + 0.5 * dt * k2, epsilon, m, k_over_n)
    k4 = _rhs(theta + dt * k3, epsilon, m, k_over_n)
    return theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# |delta theta| allowed after 400 steps: `_stepper` sums M sin and M cos in
# one GEMM and the RK4 stages in one product, which round differently from
# the oracle's two GEMVs and left-to-right sum (measured below 5e-15)
ORACLE_TOL = 1e-12


def sync_product():
    # the `sync` benchmark size: a contracted product of two 72-vertex bits
    bit = QLBitSpec(36, 6, policy=CrossRegular(1))
    return build_product(ProductSpec(qlbits=(bit, bit), mode="contracted"))


def steps_until_unstable(advance, theta, limit):
    """The index of the step that raises, or `limit` when none does."""
    for i in range(limit):
        try:
            theta = advance(theta)
        except NumericalError:
            return i
    return limit


# RK4 is the one integrator; the parameter keeps its name in the test ids
ONE_INTEGRATOR = pytest.mark.parametrize("integrator", ["rk4"])


class TestStepper:
    @ONE_INTEGRATOR
    @pytest.mark.parametrize("graph", [sync_product, phased_product, two_oscillators], ids=["sync-144", "phased", "n2"])
    def test_matches_the_textbook_form_within_1e_12(self, graph, integrator):
        g = graph()
        rng = rng_from(5, "stepper", g.n)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=g.n)
        eps = rng.normal(0.0, 0.05, size=g.n)
        eps -= eps.mean()
        m, k_over_n, dt = coupling_matrix(g), 4.0 / g.n, 0.05
        expected, got = theta.copy(), theta.copy()
        # the stepper scales its own matrix in place
        advance = _stepper(eps, coupling_matrix(g), k_over_n, dt)
        for _ in range(400):
            expected = _advance(expected, eps, m, k_over_n, dt)
            advance(got)
        assert np.abs(got - expected).max() <= ORACLE_TOL
        assert not np.array_equal(got, theta)

    @ONE_INTEGRATOR
    def test_raises_at_the_oracles_step(self, integrator):
        # psi = theta_1 - theta_0 drifts (|eps| > K/2), so |theta_dot_0| =
        # |3 + sin psi| swings between 2 and 4 and crosses pi / dt = 3.93
        # only after some steps
        m, eps, dt = coupling_matrix(two_oscillators()), np.array([3.0, -3.0]), 0.8
        start = np.array([0.0, -np.pi / 2])
        expected = steps_until_unstable(lambda t: _advance(t, eps, m, 1.0, dt), start, 100)
        theta = start.copy()
        advance = _stepper(eps, coupling_matrix(two_oscillators()), 1.0, dt)
        # advance updates theta in place and returns None
        got = steps_until_unstable(lambda t: advance(t) or t, theta, 100)
        assert 0 < expected < 100
        assert got == expected
        # the raising step leaves theta as the last stable step made it
        for _ in range(expected):
            start = _advance(start, eps, m, 1.0, dt)
        assert np.abs(theta - start).max() <= ORACLE_TOL

    @ONE_INTEGRATOR
    def test_nan_phase_raises(self, integrator):
        # nan * dt > pi is False: the gate must fail a rate that is not finite
        m = coupling_matrix(two_oscillators())
        advance = _stepper(np.zeros(2), m, 1.0, 0.01)
        with pytest.raises(NumericalError):
            advance(np.array([np.nan, 0.0]))

    def test_infinite_disorder_raises(self):
        # a library-built config skips the CLI's finiteness check, so the
        # config itself rejects infinite disorder before any run
        with pytest.raises(QllabError, match="^sigma_eps must be finite"):
            SyncRunConfig(graph=two_bit_spec(), K=1.0, t_end=0.1, sigma_eps=np.inf)


@st.composite
def stepper_cases(draw):
    """A small weighted graph, mean-free offsets, finite phases, K / N and dt."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    bias = [draw(st.floats(0.1, 3.0)) for _ in edges]
    g = BiasedGraph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2), bias=np.array(bias))
    eps = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(n)])
    eps -= eps.mean()
    # quarter turns put sin(theta_j - theta_i) at +-1, where |theta_dot| meets B
    phase = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi / 2]))
    theta = np.array([draw(phase) for _ in range(n)])
    k_over_n = draw(st.floats(0.0, 2.0))
    # dt about pi / B, where a proof without its margin, or with a looser one, would be wrong
    rate = np.max(np.abs(eps) + k_over_n * coupling_matrix(g).sum(axis=1))
    return g, eps, theta, k_over_n, draw(st.floats(0.25, 1.5)) * np.pi / max(rate, 1.0)


class TestProvenGate:
    @settings(max_examples=100, deadline=None)
    @given(stepper_cases())
    def test_a_proven_gate_cannot_fire_and_moves_no_bit(self, case):
        g, eps, theta, k_over_n, dt = case
        advance = _stepper(eps, coupling_matrix(g), k_over_n, dt)
        assume(advance.proven)
        # B bounds the rate at any finite theta, within the margin kept for rounding
        assert np.abs(_rhs(theta, eps, coupling_matrix(g), k_over_n)).max() <= advance.bound * (1 + 1e-6)
        gated = _stepper(eps, coupling_matrix(g), k_over_n, dt, prove=False)
        assert not gated.proven
        got, expected = theta.copy(), theta.copy()
        advance(got, 30)
        for _ in range(30):
            gated(expected)  # raises if the gate fires
        assert np.array_equal(got, expected)

    def test_the_bound_is_the_largest_row_rate(self):
        m, eps = coupling_matrix(two_oscillators()), np.array([0.5, -0.5])
        assert _stepper(eps, m.copy(), 2.0, 0.1).bound == 2.5
        assert _stepper(eps, m.copy(), 2.0, np.pi / 2.5 / (1 + 1e-5)).proven
        # B * dt = pi exactly leaves no room for rounding
        assert not _stepper(eps, m.copy(), 2.0, np.pi / 2.5).proven
        assert not _stepper(np.array([np.nan, 0.0]), m.copy(), 1.0, 1e-3).proven
        assert not _stepper(np.array([np.inf, -np.inf]), m.copy(), 1.0, 1e-3).proven

    @pytest.mark.parametrize("prove", [True, False], ids=["proven", "gated"])
    def test_steps_per_call_equal_single_steps(self, prove):
        g = sync_product()
        rng = rng_from(9, "steps", g.n)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=g.n)
        eps = rng.normal(0.0, 0.05, size=g.n)
        eps -= eps.mean()
        many = _stepper(eps, coupling_matrix(g), 4.0 / g.n, 0.05, prove=prove)
        one = _stepper(eps, coupling_matrix(g), 4.0 / g.n, 0.05, prove=prove)
        assert many.proven == prove
        got, expected = theta.copy(), theta.copy()
        many(got, 0)
        assert np.array_equal(got, theta)
        many(got, 25)
        for _ in range(25):
            one(expected)
        assert np.array_equal(got, expected)

    def test_the_nan_phase_stepper_is_proven(self):
        # test_nan_phase_raises reaches the entry check only on a proven stepper
        assert _stepper(np.zeros(2), coupling_matrix(two_oscillators()), 1.0, 0.01).proven


def test_removing_the_mean_passes_the_mean_free_check_at_any_spread():
    # the rounding left by removing the mean grows with |eps|
    spreads = 10.0 ** rng_from(1, "spreads").uniform(4.0, 8.0, size=300)
    for seed, sigma in enumerate(spreads):
        cfg = SyncRunConfig(graph=two_bit_spec(), K=1.0, t_end=1.0, sigma_eps=sigma)
        initial_state(144, cfg, rng_from(seed, "init", 0))


def test_a_shifted_epsilon_is_not_mean_free():
    eps = rng_from(2, "eps").normal(0.0, 1e5, size=144)
    eps -= eps.mean()
    OscillatorState(theta=np.zeros(144), epsilon=eps)
    with pytest.raises(QllabError, match="mean-free"):
        OscillatorState(theta=np.zeros(144), epsilon=eps + 1e-6 * 1e5)


def test_the_default_dt_reads_the_larger_rate():
    def default_dt(**fields):
        return _default_dt(SyncRunConfig(graph=two_bit_spec(), **{"t_end": 10.0, **fields}), 32)

    # sigma_eps <= K / N keeps the form 1e-3 * N / K, and so the bytes of
    # every run whose sigma_eps is unset
    for sigma in (None, 0.0, 1.0 / 32):
        assert default_dt(K=1.0, sigma_eps=sigma) == 1e-3 * 32
    assert default_dt(K=1.0, sigma_eps=0.5) == default_dt(K=0.0, sigma_eps=0.5) == 1e-3 / 0.5
    assert default_dt(K=0.0) == 10.0
    assert default_dt(K=0.0, sigma_eps=0.5, t_end=1e-4) == 1e-4


@pytest.mark.parametrize(
    "field, value",
    [("K", np.nan), ("K", np.inf), ("t_end", np.inf), ("t_end", np.nan), ("dt", np.nan), ("dt", np.inf)]
    + [("sigma_eps", np.nan), ("sigma_eps", np.inf), ("init_width", np.nan), ("init_width", np.inf)],
)
def test_non_finite_run_numbers_are_rejected_by_field(field, value):
    # a library-built config skips the CLI's finiteness check; unchecked,
    # K, t_end and dt reach int(round(t_end / dt)) in run_sync_experiment
    # as a bare ValueError, OverflowError or ZeroDivisionError, a NaN
    # sigma_eps runs as zero disorder and a non-finite init_width fails the
    # phase draw with a bare OverflowError.  The message starts with the
    # field, so the CLI can prefix the config path
    with pytest.raises(QllabError, match=f"^{field} must be finite"):
        SyncRunConfig(graph=two_bit_spec(), **{"K": 1.0, "t_end": 0.1, field: value})


@pytest.mark.parametrize(
    "fields",
    [{"dt": 1e-300}, {"K": 1e300}, {"t_end": 1e300, "dt": 1e-10}],
    ids=["explicit-dt", "default-dt", "infinite-count"],
)
def test_a_step_count_that_cannot_be_counted_raises_naming_dt(fields):
    # the default dt of K 1e300 is about 1e-302, and t_end / dt of the last
    # case overflows to inf
    cfg = SyncRunConfig(graph=two_bit_spec(), **{"K": 1.0, "t_end": 1.0, **fields})
    with pytest.raises(QllabError, match="^dt .* more than can be counted"):
        run_sync_experiment(cfg)
