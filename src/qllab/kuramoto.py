"""Kuramoto phase dynamics on biased graphs.

The coupling matrix is the magnitude of the adjacency (phases of complex
biases enter only through the phase transform), and the coupling term is
attractive: theta_dot_i = eps_i + (K/N) sum_j |a_ij| sin(theta_j - theta_i),
so equal phases are a stable fixed point and the network synchronizes.

`phase_transform` conjugates the adjacency by the diagonal phase unitary
D = diag(exp(i theta)), multiplying each edge bias by
exp(i (theta_j - theta_i)): A -> D* A D.  This is a unitary similarity, so
the spectrum never changes and every eigenvector v of A becomes
exp(-i theta) * v.  `run_sync_experiment` therefore solves the top
eigenpair of each realization once, at time zero, and reads the emergent
state at every record in closed form; `phase_transform` is kept as the
explicit reference.  The ensemble purity at a record is read off the Gram
matrix of the realizations' record vectors (`states.mixture_purity`), with
no n x n density matrix.

Both `run_sync_experiment` and `step` integrate by classical RK4 through
`_stepper`, which updates theta in place, a record interval per call, and
checks its stability gate per step only where one bound does not prove it.
Its merged sums round differently from the textbook form: 4 of 5,280 `sync`
benchmark ops printed one order parameter one unit off in its 12th
significant digit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, QllabError
from .graph import BiasedGraph, derive_seed, rng_from
from .qlproduct import ProductSpec, build_product
from .spectral import top_pair
from .states import mixture_purity


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
        # initial_state removes the mean, which leaves a rounding that grows with |eps|
        if self.epsilon.size and abs(self.epsilon.mean()) > 1e-12 * max(1.0, np.abs(self.epsilon).max()):
            raise QllabError("epsilon must be mean-free (rotating frame)")


def coupling_matrix(g: BiasedGraph) -> np.ndarray:
    """|a_ij| with zero diagonal; the real Kuramoto coupling weights.

    The array starts on a 64-byte boundary, where the matrix products of
    each right-hand side run fastest.  numpy's allocator puts it 0, 16, 32
    or 48 bytes past one, depending on what the process allocated before;
    at n = 144 (one x86 core, one OpenBLAS thread) a right-hand side took
    13-15 us at 0 but up to 22 us at 32 or 48.

    The adjacency of the magnitude graph (each bias replaced by its
    modulus) is written straight into that array, so the only n x n array
    made is M itself; |conj(b)| = |b| holds exactly, so the entries are
    those of np.abs(g.adjacency()) to the bit.
    """
    size = g.n * g.n * 8
    buf = np.empty(size + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    m = buf[start : start + size].view(np.float64).reshape(g.n, g.n)
    replace(g, bias=np.abs(g.bias)).adjacency(out=m)
    np.fill_diagonal(m, 0.0)
    return m


def _stepper(epsilon, m, k_over_n, dt, prove=True):
    """Return `advance(theta, steps=1)`, which moves the phases `steps` RK4 steps in place.

    A right-hand side is eps + cos * (M' sin) - sin * (M' cos), with
    M' = (K/N) M.  The stepper owns m and scales it in place, once, so M'
    keeps `coupling_matrix`'s 64-byte alignment; a scaled copy cost a
    second n x n array, whose pages were faulted in again on every `sync`
    op.  A right-hand side is sin and cos into the rows of one (2, n)
    buffer sc, one GEMM sc @ M' = [M' sin; M' cos] (M is symmetric), a 1-D
    multiply of each row by cos and by sin, one subtract and one add of eps.
    A step sums its four stages with one more product, [dt/6, dt/3, dt/3,
    dt/6] @ k over the (4, n) stage buffer.  Both products call np.dot,
    which runs np.matmul's BLAS routines with less overhead.  The buffers,
    their row views and the 0-d scalars are made once per realization.

    The gate raises when |theta_dot| * dt > pi at a step's first stage, or
    when theta_dot is not finite, leaving theta as the last stable step
    made it.  As |sin| <= 1 and M' >= 0, B = max_i(|eps_i| + sum_j M'_ij)
    bounds every |theta_dot_i| at every finite theta, so when
    B * dt * (1 + 1e-6) <= pi the gate cannot fire and is skipped
    (`advance.proven`; B is `advance.bound`).  The 1e-6 covers the rounding
    of the GEMM, the row sums and the products, under n * 1.1e-16 each for
    any n below 1e9.  Otherwise, as at a NaN or infinite eps (B is then not
    finite) or with `prove=False`, which the tests compare against, the
    gate runs on every step.  A proven step keeps a finite theta finite, so
    `advance` checks theta once per call.

    The merged sums round differently from the textbook form (kept in
    `tests/test_kuramoto.py` as the oracle): after 400 steps the phases
    agree with it within 1e-12 (measured below 5e-15).  At n = 144 (one x86
    core, one OpenBLAS thread; medians over 40 interleaved runs of 278
    steps, three probes) a proven 278-step call took 0.86-0.87x the time of
    278 calls of the gated form that multiplied by the swapped rows
    sc[::-1] and called np.matmul (52 against 60-62 us per step), and
    0.89-0.93x with np.matmul.  The gate is about 5% of a step.
    """
    sin, cos, dot, mul, add, sub = np.sin, np.cos, np.dot, np.multiply, np.add, np.subtract
    absolute, largest = np.absolute, np.maximum.reduce
    n = len(epsilon)
    mul(m, k_over_n, m)  # M' = (K/N) M
    bound = largest(absolute(epsilon) + m.sum(axis=1), initial=0.0)
    proven = prove and bool(bound * dt * (1.0 + 1e-6) <= np.pi)
    unstable = "integrator unstable: |theta_dot| * dt exceeds pi; reduce dt"
    sc, msc, k, x = np.empty((2, n)), np.empty((2, n)), np.empty((4, n)), np.empty(n)
    (s, c), (m_sin, m_cos), (k1, k2, k3, k4) = sc, msc, k
    # 0-d arrays: a ufunc takes them faster than Python floats, at the same value
    h, half = np.array(dt), np.array(0.5 * dt)
    weights = np.array([dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0])

    def rhs(theta, out):
        sin(theta, s)
        cos(theta, c)
        dot(sc, m, msc)  # rows: M' sin, M' cos
        mul(m_sin, c, m_sin)
        mul(m_cos, s, m_cos)
        sub(m_sin, m_cos, out)
        add(out, epsilon, out)

    def stage(theta, step, k_in, k_out):
        mul(k_in, step, x)
        add(theta, x, x)
        rhs(x, k_out)

    def advance(theta, steps=1):
        if not np.isfinite(theta).all():
            raise NumericalError(unstable)
        for _ in range(steps):
            rhs(theta, k1)
            # written so that a NaN rate fails it too
            if not proven and not largest(absolute(k1, x)) * dt <= np.pi:
                raise NumericalError(unstable)
            stage(theta, half, k1, k2)
            stage(theta, half, k2, k3)
            stage(theta, h, k3, k4)
            dot(weights, k, x)
            add(theta, x, theta)

    advance.bound, advance.proven = bound, proven
    return advance


def step(state: OscillatorState, g: BiasedGraph, K, dt) -> OscillatorState:
    """Advance the phases by one RK4 step.

    No experiment calls it; it stays as the one-step reference that the
    integrator tests run `_stepper` against."""
    if dt <= 0:
        raise QllabError("dt must be positive")
    theta = state.theta.copy()
    _stepper(state.epsilon, coupling_matrix(g), K / g.n, dt)(theta)
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
    u, v = g.edges.T
    return replace(g, bias=g.bias * np.exp(1j * (theta[v] - theta[u])))


@dataclass
class SyncRunConfig:
    """Parameters of one synchronization experiment.

    graph may be a built BiasedGraph (shared by all realizations) or a
    ProductSpec, from whose seed, not its bits', a fresh graph is drawn per
    realization.  seed draws the initial phases, uniform on [0, init_width),
    and the frequency offsets.  sigma_eps defaults to 0.1 * K / N and dt to
    min(t_end, 1e-3 / max(K / N, sigma_eps)), t_end when both are 0.  So the
    defaulted dynamics of a graph depend only on tau = K * t / N, and a
    comparison across sizes must fix tau_end, not t_end: at t_end 10 and
    K 4, tau_end is 0.28 at N 144 but 0.004 at N 9,216, where the phases
    barely move.
    """

    graph: object
    K: float
    t_end: float
    dt: float = None
    init_width: float = 2.0 * np.pi
    sigma_eps: float = None
    realizations: int = 1
    seed: int = 0
    record_every: int = 10

    def __post_init__(self):
        # Each message starts with the field it names, so the CLI can
        # prefix the config path.
        for name in ("K", "t_end", "dt", "init_width", "sigma_eps"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise QllabError(f"{name} must be finite, got {value!r}")
        if self.K < 0:
            raise QllabError("K must be nonnegative")
        if self.dt is not None and self.dt <= 0:
            raise QllabError("dt must be positive")
        if self.t_end <= 0:
            raise QllabError("t_end must be positive")
        if self.init_width < 0:
            raise QllabError("init_width must be nonnegative")
        if self.sigma_eps is not None and self.sigma_eps < 0:
            raise QllabError("sigma_eps must be nonnegative")
        if self.realizations < 1:
            raise QllabError("realizations must be >= 1")


@dataclass
class SyncResult:
    """Recorded time series, ensemble-averaged over realizations."""

    t: np.ndarray
    order_parameter: np.ndarray
    purity: np.ndarray
    eigenvalue_top: np.ndarray


def _spread(cfg: SyncRunConfig, n) -> float:
    """The frequency spread: sigma_eps, or 0.1 * K / N when it is unset."""
    return 0.1 * cfg.K / n if cfg.sigma_eps is None else cfg.sigma_eps


def _default_dt(cfg: SyncRunConfig, n) -> float:
    """min(t_end, 1e-3 / max(K / N, sigma)), or t_end when both are 0.

    At sigma <= K / N it reads K alone, as 1e-3 * N / K, which keeps the
    bytes of every run with sigma_eps unset.  An infinite or NaN sigma
    reads K alone too, so its run fails the stepper's gate, not dt = 0.
    """
    sigma = _spread(cfg, n)
    if cfg.K / n < sigma < np.inf:
        return min(cfg.t_end, 1e-3 / sigma)
    return min(cfg.t_end, 1e-3 * n / cfg.K) if cfg.K > 0 else cfg.t_end


def initial_state(n, cfg: SyncRunConfig, rng) -> OscillatorState:
    theta = rng.uniform(0.0, cfg.init_width, size=n)
    sigma = _spread(cfg, n)
    eps = rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)
    eps -= eps.mean()
    return OscillatorState(theta=theta, epsilon=eps, t=0.0)


def _realization_graph(cfg: SyncRunConfig, r: int) -> BiasedGraph:
    g = cfg.graph
    if isinstance(g, BiasedGraph):
        return g
    if isinstance(g, ProductSpec):
        bits = tuple(replace(b, seed=derive_seed(g.seed, "bit", r, j)) for j, b in enumerate(g.qlbits))
        spec = replace(g, qlbits=bits, seed=derive_seed(g.seed, "graph", r))
        return build_product(spec)
    raise QllabError("graph must be a BiasedGraph or a ProductSpec")


def run_sync_experiment(cfg: SyncRunConfig) -> SyncResult:
    """Integrate the ensemble and record order parameter and emergent purity.

    Only the top eigenpair (lambda_0, v_0) of each realization's graph is
    solved, once, at time zero, by `top_pair`: Lanczos, gated on the pair's
    residual and on a proof that no eigenvalue lies above lambda_0, with the
    full solve as fallback.  At a record with phases theta the
    phase-transformed adjacency D* A D, D = diag(exp(i theta)), is unitarily
    similar to A, so its top eigenvalue is lambda_0 and its top eigenvector
    is exactly w = exp(-i theta) * v_0; no per-record solve is needed.  The
    record vectors w_r of the R realizations are kept (records * n * R
    numbers), and the purity tr rho^2 of their ensemble density matrix
    rho = (1/R) sum_r w_r w_r^* is read off their R x R Gram matrix by
    `mixture_purity`, without forming the n x n rho.

    When lambda_0 of a realization is degenerate, the top eigenvector is the
    projection of 1/sqrt(n) onto its eigenspace, one fixed vector carried
    through every record (a per-record solve would pick an arbitrary member
    each time).

    The step count round(t_end / dt), with dt set or defaulted, must be
    below sys.maxsize, or the run raises a QllabError that names dt before
    any step.  A count that fits but is huge is not bounded here: that
    takes a size budget checked before the run, which the lab does not
    have yet.
    """
    sample = _realization_graph(cfg, 0)
    n = sample.n
    dt = cfg.dt if cfg.dt is not None else _default_dt(cfg, n)
    count = cfg.t_end / dt
    if not count < sys.maxsize:
        raise QllabError(f"dt {dt!r} makes t_end / dt = {count:.3g} steps, more than can be counted")
    steps = max(1, int(round(count)))
    record_at = list(range(0, steps + 1, cfg.record_every))
    if record_at[-1] != steps:
        record_at.append(steps)
    times = np.array([k * dt for k in record_at])

    vectors = np.empty((len(record_at), n, cfg.realizations), dtype=complex)
    r_sum = np.zeros(len(record_at))
    top_sum = 0.0
    k_over_n = cfg.K / n

    for r in range(cfg.realizations):
        g = sample if r == 0 else _realization_graph(cfg, r)
        m = coupling_matrix(g)
        top, v0 = top_pair(g)
        top_sum += top
        state = initial_state(n, cfg, rng_from(cfg.seed, "init", r))
        theta = state.theta
        advance = _stepper(state.epsilon, m, k_over_n, dt)
        for i, (done, target) in enumerate(zip([0, *record_at], record_at)):
            advance(theta, target - done)
            vectors[i, :, r] = np.exp(-1j * theta) * v0
            r_sum[i] += order_parameter(theta)

    return SyncResult(
        t=times,
        order_parameter=r_sum / cfg.realizations,
        purity=np.array([mixture_purity(w) for w in vectors]),
        eigenvalue_top=np.full(len(record_at), top_sum / cfg.realizations),
    )
