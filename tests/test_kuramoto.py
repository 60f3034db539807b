import numpy as np
import pytest

from qllab.errors import NumericalError
from qllab.graph import BiasedGraph, gen_complete, rng_from
from qllab.kuramoto import (
    OscillatorState,
    SyncRunConfig,
    _realization_graph,
    initial_state,
    order_parameter,
    phase_transform,
    run_sync_experiment,
    step,
)
from qllab.qlbit import CrossRegular, qlbit_spec
from qllab.qlproduct import ProductSpec, build_product, project_product_state
from qllab.spectral import eigendecompose


def two_bit_spec(seed=0):
    bits = tuple(qlbit_spec(8, 3, policy=CrossRegular(1), seed=(seed, t)) for t in range(2))
    return ProductSpec(qlbits=bits, mode="contracted", n=8, d=3, seed=seed)


def phased_product(seed=0):
    """A two-bit product with a random phase on every edge bias.

    The product's own biases are gauge-equivalent to real ones; random
    phases make the eigenvectors genuinely complex, so that the density
    matrices tell exp(-i theta) from exp(+i theta).
    """
    g = build_product(two_bit_spec(seed))
    rng = rng_from(seed, "edge_phases")
    return g.replace_edges(
        {e: b * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) for e, b in g.edges.items()}
    )


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
                if cfg.effective_purity:
                    w = project_product_state(g, w).normalized()
                rhos[i] = rhos[i] + density(w)
                r_sum[i] += order_parameter(state.theta)
                top_sum[i] += spec.eigenvalues[0]
            if k < steps:
                state = step(state, g, cfg.K, cfg.dt, cfg.integrator)
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
    @pytest.mark.parametrize(
        "realizations, effective_purity", [(1, False), (3, False), (3, True)]
    )
    def test_run_matches_per_record_solve(self, graph, realizations, effective_purity):
        cfg = SyncRunConfig(
            graph=graph,
            K=2.0,
            t_end=1.0,
            dt=0.05,
            realizations=realizations,
            seed=11,
            record_every=4,
            effective_purity=effective_purity,
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


def two_oscillators():
    return BiasedGraph.from_edges(2, [(0, 1)])


class TestDynamics:
    def test_uncoupled_oscillators_drift_at_their_frequency(self):
        # epsilon must be mean-free, so a lone oscillator would not drift;
        # two uncoupled ones with opposite offsets each follow theta0 + eps t
        g = BiasedGraph(n=2)
        theta0, eps = np.array([0.3, 1.1]), np.array([0.25, -0.25])
        state = OscillatorState(theta=theta0, epsilon=eps)
        for integrator in ("euler", "rk4"):
            s = state
            for _ in range(40):
                s = step(s, g, K=0.0, dt=0.05, integrator=integrator)
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

    @pytest.mark.parametrize("integrator, ratio", [("euler", 2.0), ("rk4", 16.0)])
    def test_convergence_order(self, integrator, ratio):
        # two coupled oscillators with K = 1: psi = theta_1 - theta_0 obeys
        # psi' = -sin(psi), so tan(psi / 2) = tan(psi_0 / 2) exp(-t)
        g, psi0, t_end = two_oscillators(), 2.0, 1.0
        psi_exact = 2.0 * np.arctan(np.tan(psi0 / 2.0) * np.exp(-t_end))

        def error(dt):
            s = OscillatorState(theta=np.array([-psi0 / 2, psi0 / 2]), epsilon=np.zeros(2))
            for _ in range(int(round(t_end / dt))):
                s = step(s, g, K=1.0, dt=dt, integrator=integrator)
            return abs((s.theta[1] - s.theta[0]) - psi_exact)

        observed = error(0.1) / error(0.05)
        assert ratio * 0.8 < observed < ratio * 1.2
