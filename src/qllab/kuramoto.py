"""Kuramoto phase dynamics on biased graphs.

The coupling matrix is the magnitude of the adjacency (phases of complex
biases enter only through the phase transform), and the coupling term is
attractive: theta_dot_i = eps_i + (K/N) sum_j |a_ij| sin(theta_j - theta_i),
so equal phases are a stable fixed point and the network synchronizes.

`phase_transform` conjugates the adjacency by the diagonal phase unitary
D = diag(exp(i theta)), multiplying each edge bias by
exp(i (theta_j - theta_i)): A -> D* A D.  This is a unitary similarity, so
the spectrum never changes and every eigenvector v of A becomes
exp(-i theta) * v.  `run_sync_experiment` therefore diagonalizes each
realization once, at time zero, and reads the emergent state at every
record in closed form; `phase_transform` is kept as the explicit reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError, QllabError
from .graph import BiasedGraph, derive_seed, rng_from
from .qlproduct import (
    ProductSpec,
    build_product,
    product_basis_labels,
    project_product_state,
)
from .spectral import eigendecompose


@dataclass
class OscillatorState:
    """Phases, mean-removed frequency offsets, and current time."""

    theta: np.ndarray
    epsilon: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.epsilon = np.asarray(self.epsilon, dtype=float)
        if self.theta.shape != self.epsilon.shape:
            raise QllabError("theta and epsilon must have matching shapes")
        if self.epsilon.size and abs(self.epsilon.mean()) > 1e-12:
            raise QllabError("epsilon must be mean-free (rotating frame)")

    def theta_wrapped(self) -> np.ndarray:
        return np.mod(self.theta, 2.0 * np.pi)


def coupling_matrix(g: BiasedGraph) -> np.ndarray:
    """|a_ij| with zero diagonal; the real Kuramoto coupling weights."""
    m = np.abs(g.adjacency())
    np.fill_diagonal(m, 0.0)
    return m


def _rhs(theta, epsilon, m, k_over_n):
    s, c = np.sin(theta), np.cos(theta)
    # sum_j m_ij sin(theta_j - theta_i) = cos_i (M sin)_i - sin_i (M cos)_i
    return epsilon + k_over_n * (c * (m @ s) - s * (m @ c))


def _advance(theta, epsilon, m, k_over_n, dt, integrator):
    k1 = _rhs(theta, epsilon, m, k_over_n)
    if np.abs(k1).max() * dt > np.pi:
        raise NumericalError(
            "integrator unstable: |theta_dot| * dt exceeds pi; reduce dt"
        )
    if integrator == "euler":
        return theta + dt * k1
    if integrator == "rk4":
        k2 = _rhs(theta + 0.5 * dt * k1, epsilon, m, k_over_n)
        k3 = _rhs(theta + 0.5 * dt * k2, epsilon, m, k_over_n)
        k4 = _rhs(theta + dt * k3, epsilon, m, k_over_n)
        return theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    raise QllabError(f"unknown integrator {integrator!r}")


def step(state: OscillatorState, g: BiasedGraph, K, dt, integrator="rk4") -> OscillatorState:
    """Advance the phases by one time step."""
    if dt <= 0:
        raise QllabError("dt must be positive")
    m = coupling_matrix(g)
    theta = _advance(state.theta, state.epsilon, m, K / g.n, dt, integrator)
    return OscillatorState(theta=theta, epsilon=state.epsilon, t=state.t + dt)


def order_parameter(theta) -> float:
    """|mean(exp(i theta))|: 1 when fully synchronized."""
    theta = np.asarray(theta, dtype=float)
    if theta.size == 0:
        raise QllabError("no oscillators")
    return float(abs(np.exp(1j * theta).mean()))


def phase_transform(g: BiasedGraph, state: OscillatorState) -> BiasedGraph:
    """Conjugate the adjacency by diag(exp(i theta)).

    Each stored edge bias a_uv becomes a_uv * exp(i (theta_v - theta_u));
    the spectrum is preserved exactly.
    """
    theta = state.theta
    if len(theta) != g.n:
        raise QllabError("state size does not match graph")
    edges = {
        (u, v): bias * np.exp(1j * (theta[v] - theta[u]))
        for (u, v), bias in g.edges.items()
    }
    return g.replace_edges(edges)


@dataclass
class SyncRunConfig:
    """Parameters of one synchronization experiment.

    graph may be a built BiasedGraph (shared by all realizations) or a
    ProductSpec (a fresh graph is drawn per realization).  dt defaults to
    1e-3 * N / K; sigma_eps defaults to 0.1 * K / N.
    """

    graph: object
    K: float
    t_end: float
    dt: float = None
    integrator: str = "rk4"
    init: str = "uniform_phases"
    init_width: float = 2.0 * np.pi
    sigma_eps: float = None
    realizations: int = 1
    seed: int = 0
    record_every: int = 10
    effective_purity: bool = False

    def __post_init__(self):
        if self.K < 0:
            raise QllabError("coupling K must be nonnegative")
        if self.dt is not None and self.dt <= 0:
            raise QllabError("dt must be positive")
        if self.t_end <= 0:
            raise QllabError("t_end must be positive")
        if self.init not in ("uniform_phases", "normal"):
            raise QllabError(f"unknown init {self.init!r}")
        if self.realizations < 1:
            raise QllabError("need at least one realization")


@dataclass
class SyncResult:
    """Recorded time series, ensemble-averaged over realizations."""

    t: np.ndarray
    order_parameter: np.ndarray
    purity: np.ndarray
    eigenvalue_top: np.ndarray
    config: SyncRunConfig = field(repr=False, default=None)


def initial_state(n, cfg: SyncRunConfig, rng) -> OscillatorState:
    if cfg.init == "uniform_phases":
        theta = rng.uniform(0.0, cfg.init_width, size=n)
    else:
        theta = rng.normal(0.0, cfg.init_width, size=n)
    sigma = cfg.sigma_eps
    if sigma is None:
        sigma = 0.1 * cfg.K / n
    eps = rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)
    eps -= eps.mean()
    return OscillatorState(theta=theta, epsilon=eps, t=0.0)


def _realization_graph(cfg: SyncRunConfig, r: int) -> BiasedGraph:
    g = cfg.graph
    if isinstance(g, BiasedGraph):
        return g
    if isinstance(g, ProductSpec):
        bits = tuple(
            replace(b, seed=derive_seed(cfg.seed, "bit", r, j))
            for j, b in enumerate(g.qlbits)
        )
        spec = replace(g, qlbits=bits, seed=derive_seed(cfg.seed, "graph", r))
        return build_product(spec)
    raise QllabError("graph must be a BiasedGraph or a ProductSpec")


def run_sync_experiment(cfg: SyncRunConfig) -> SyncResult:
    """Integrate the ensemble and record order parameter and emergent purity.

    Each realization's graph is diagonalized once, at time zero, with the
    residual check of `eigendecompose`.  At a record with phases theta the
    phase-transformed adjacency D* A D, D = diag(exp(i theta)), is unitarily
    similar to A, so its top eigenvalue is lambda_0 and its top eigenvector
    is exactly w = exp(-i theta) * v_0; no per-record solve is needed.  With
    effective_purity, w is replaced by its normalized product-basis
    projection.  The record vectors w_r of the R realizations define the
    ensemble density matrix rho = (1/R) sum_r w_r w_r^*, accumulated per
    record (records * dim^2 numbers); rho is Hermitian, so its purity
    tr rho^2 is the sum of |rho_ij|^2, with no matrix product.

    When lambda_0 of a realization is degenerate, the top eigenvector is one
    fixed vector of its eigenspace, carried through every record (a
    per-record solve would pick an arbitrary member each time).
    """
    sample = _realization_graph(cfg, 0)
    n = sample.n
    dt = cfg.dt if cfg.dt is not None else 1e-3 * n / max(cfg.K, 1e-12)
    steps = max(1, int(round(cfg.t_end / dt)))
    record_at = list(range(0, steps + 1, cfg.record_every))
    if record_at[-1] != steps:
        record_at.append(steps)
    times = np.array([k * dt for k in record_at])

    if cfg.effective_purity:
        dim = len(product_basis_labels(sample))
    else:
        dim = n
    rho_sum = np.zeros((len(record_at), dim, dim), dtype=complex)
    r_sum = np.zeros(len(record_at))
    top_sum = 0.0
    k_over_n = cfg.K / n

    for r in range(cfg.realizations):
        g = sample if r == 0 else _realization_graph(cfg, r)
        m = coupling_matrix(g)
        spectrum = eigendecompose(g)
        v0 = spectrum.eigenvectors[:, 0]
        top_sum += spectrum.eigenvalues[0]
        state = initial_state(n, cfg, rng_from(cfg.seed, "init", r))
        theta, epsilon = state.theta, state.epsilon
        done = 0
        for i, target in enumerate(record_at):
            for _ in range(target - done):
                theta = _advance(theta, epsilon, m, k_over_n, dt, cfg.integrator)
            done = target
            w = np.exp(-1j * theta) * v0
            if cfg.effective_purity:
                w = project_product_state(g, w).normalized()
            rho_sum[i] += np.outer(w, w.conj())
            r_sum[i] += order_parameter(theta)

    purity = (np.abs(rho_sum) ** 2).sum(axis=(1, 2)) / cfg.realizations**2
    return SyncResult(
        t=times,
        order_parameter=r_sum / cfg.realizations,
        purity=purity,
        eigenvalue_top=np.full(len(record_at), top_sum / cfg.realizations),
        config=cfg,
    )
