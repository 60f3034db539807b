"""Dense Hermitian eigensolvers and the readings taken off a spectrum.

Eigenvalues are always reported in non-increasing order.  The full solves
read the dense `BiasedGraph.adjacency()`, which is real when no bias has
an imaginary part; `top_pair` reads the graph through its edge arrays,
`BiasedGraph.operator()`, at O(m) per product:

- `eigendecompose` returns the full eigensystem and checks every eigenpair
  residual.  Contracted `product`s whose block partition is not equitable
  reach it, and so does `top_pair` when its proofs fail.  A full `product`
  runs it on each factor only, and `qlproduct.verify_spectrum_composition`
  proves the product's eigensystem off the factors' eigenpairs and
  residuals, with no operator on the product's N vertices.
- `eigenvalues` returns the spectrum alone, from `eigvalsh`, and checks the
  trace and Frobenius-norm identities instead, with tr A and ||A||_F^2
  read off the edge arrays.  `spectrum`, `cheeger` and the equitable
  contracted `product` use it, the last to rank its quotient states, and
  so does the emergent state below when no proof places it.
  At n = 512 (a random 6-regular graph with sigma = 0.2 disorder) it takes
  about 17-20 ms against 50-60 ms for `eigendecompose`.
- `top_pair` returns only the top eigenvalue and one unit eigenvector, by
  Lanczos on the edge-array operator, and proves both before returning
  them; when a proof fails it returns the top pair of `eigendecompose`.
  `disorder-sweep`, the witness readout and the Kuramoto records read
  nothing else and use it.  The bound on the top eigenvalue is first read
  in O(m) off the edge arrays (a Gershgorin bound scaled by the Ritz
  vector), which proves the top of every sparse nonnegative graph the
  experiments build, with no n x n array; signed graphs, such as the
  `minus` witness graphs, need an O(n^3) Cholesky factorization of the
  dense matrix.  At n = 256 (random 6-regular graphs, edges kept with
  probability r) it takes about 0.25 ms at r = 1 (one step), 2.0 ms at
  r = 0.7 and 2.6-3.2 ms at r = 0.4, against 8-10 ms for
  `eigendecompose`; about a quarter of that is the `eigh` of the k x k
  tridiagonal Ritz problem.  At n = 4096 and r = 0.7 it takes about 50 ms
  with a 5 MB peak, where one dense n x n array takes 134 MB.  The
  emergent state below reads its one vector through it.
- `level_is_simple` proves a top eigenvalue with a known eigenvector x
  simple by one Cholesky factorization of (lambda - window) I - A +
  c x x^H, with no eigenvalue solved; a bottom level is the top of -g.  It
  generalizes `top_pair`'s Cholesky proof, and the emergent state below
  uses it.

Times are for one x86 core and one BLAS thread.

The dense operand.  `eigendecompose`, `eigenvalues` and the Cholesky
proofs all read one n x n array that this module keeps: `_dense` writes
g's adjacency into it through `BiasedGraph.adjacency(out=)`, and each
Cholesky proof forms its matrix in it in place.  It lives from the first
dense solve until a solve of another (n, dtype) replaces it, so the
process holds at most one, of the last shape solved, and no returned array
shares its memory.  A fresh operand per solve, and the
work copy numpy makes of it, faulted their pages in again on every
solve: 1,987 minor faults per `ensemble` op (two n = 512 solves), against
1 with the kept operand.  Because two solves would write the same array,
the solves run on one thread; no part of the lab calls them from two.

When every vertex of block i has the same weighted neighbour sum into each
block j, the block partition is equitable, span(J) of the unit block
indicators is invariant, and A J = J H_eff with H_eff = J^H A J (Godsil
and Royle, Algebraic Graph Theory, section 9.3).  `quotient` reads H_eff
and the deviation from equitability off the edge arrays in O(m);
`quotient_states` then gives the QL states J U exactly from the k x k
H_eff and ranks them in the spectrum its caller passes.  On a contracted
q = 3 product of 40-vertex blocks (320 vertices) the states and their
spectrum from `eigenvalues` take about 6 ms, of which the quotient is
0.2 ms, against 14.5 ms for `eigendecompose` and a projection.

A QL bit's emergent state is the level its block structure splits off the
bulk: the top with positive block biases, the bottom with negative ones.
One rule picks it, the extreme value of largest |lambda| with ties sent to
the top (`_extreme_index`), and one window flags a tie,
DEGENERACY_TOL * max(1, max |lambda|) (`_degeneracy_window`).
`emergent_state` is the one reader of a labeled bit, and `extreme_state`
applies the rule to quotient states.  It takes its candidate off H_eff on
an equitable bit and from `top_pair` on a real nonnegative one.  It solves
no eigenvalue where a bound puts the candidate at the end of the spectrum
and one `level_is_simple` Cholesky flags it: every Bloch row and every bit
with +1 biases.  A 160-vertex budget bit takes about 1.7 ms that way,
against 2.6 ms for the values from `eigenvalues` and the pair from
`top_pair` (the path of any other graph) and 3.7 ms for `eigendecompose`;
a 160-vertex y- row takes about 1.3 ms, against 2.6 ms for `eigenvalues`
and `quotient_states`.  A `qlbit` run on a 2000-vertex budget bit takes
0.35-0.55 s and 136 MB max RSS (the factor and numpy's work copy of the
operand), against 1.1-1.3 s and 99 MB with the values from `eigenvalues`.
The Cholesky alone takes 0.2 ms at n = 160.  `ensemble_spectrum`
histograms the eigenvalues of many realizations; a QL state's distance to
the bulk is the `gap` of `quotient_states`.  Graphs that reach these
solvers are small enough for exact dense solves.

Phase rule.  A state read in the block basis is defined only up to a
global phase, so every reported state is put in one canonical phase by
`fixed_phase`: its first largest coefficient (magnitudes within
DEGENERACY_TOL of the largest count as tied, and exact zeros never) is
made real and positive.
An already canonical state keeps every bit, and a real state moves by
sign, to within one rounding of the complex quotient conj(c_k) / |c_k|.
`quotient_states` applies it to every QL state, and the `qlbit` and
`product` artifacts apply it once more to each state they report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import MissingLabelsError, NumericalError, QllabError
from .graph import BiasedGraph, EffectiveState, edge_operator, project_blocks

# Eigenvalues closer than this (times max(1, max |lambda|)) count as degenerate.
DEGENERACY_TOL = 1e-6

# An eigenpair (lambda, v) holds when ||A v - lambda v|| <= this * max(1, |lambda|).
RESIDUAL_TOL = 1e-8

# |lambda_bottom| outranks |lambda_top| only when larger by this * max(1, max |lambda|)
_MAGNITUDE_TIE_TOL = 1e-12

# A block partition is equitable when no vertex's weighted neighbour sum
# into a block is further than this from its block's mean.  Sums of the
# unit-modulus biases the builders use are exact, so their equitable
# partitions read 0.0.
EQUITABLE_TOL = 1e-12

# Lanczos stops once its Ritz residual estimate is this small (times
# max(1, |theta|)); far below RESIDUAL_TOL, so every printed digit holds.
_LANCZOS_TOL = 1e-13
# `top_pair`'s Gershgorin scales are |x| floored at this times max |x|.  A
# converged Ritz vector keeps components of about _LANCZOS_TOL off the top
# eigenspace, so the floor lifts that noise (on other components, or where
# a signed graph's top vector vanishes) to one common scale, where rows read
# as plain Gershgorin; a Perron vector entry this small would only weaken
# the bound and send the proof to the Cholesky.
_SCALE_FLOOR = 1e-12
# Lanczos steps between two solves of its tridiagonal Ritz problem: the
# first stride, and the cap on the strides extrapolated after it.
_FIRST_STRIDE, _MAX_STRIDE = 8, 32


@dataclass
class Spectrum:
    """Eigensystem of a Hermitian adjacency matrix.

    eigenvalues are sorted descending; eigenvectors[:, i] belongs to
    eigenvalues[i] and the columns are orthonormal.  eigenvectors holds a
    column per eigenvalue from `eigendecompose`, but may hold only the
    leading columns (a composed full product's).  residuals[i] bounds
    ||A v_i - lambda_i v_i||: it is that norm from `eigendecompose`, and
    the sum of the factors' residuals for a composed product.  Every pair
    passes `check_eigenpairs` on construction.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        check_eigenpairs(self.eigenvalues, self.residuals, "eigenpair")

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def degeneracy_window(self) -> float:
        """The solvers' degeneracy window for this spectrum; no experiment
        reads it, but it is how a holder of a Spectrum tells a tie."""
        return _degeneracy_window(self.eigenvalues)


def check_eigenpairs(values, residuals, what: str) -> None:
    """Raise NumericalError unless residuals[i] <= RESIDUAL_TOL * max(1,
    |values[i]|) for every i; the message names the first failing `what`."""
    bad = np.flatnonzero(residuals > RESIDUAL_TOL * np.maximum(1.0, np.abs(values)))
    if len(bad):
        k = bad[0]
        raise NumericalError(f"{what} {k} residual {residuals[k]:.3e} exceeds tolerance")


def eigendecompose(g: BiasedGraph) -> Spectrum:
    """Diagonalize the adjacency matrix of g.

    The residuals ||A v - lambda v|| are kept in the Spectrum, whose
    construction checks each pair; a failing pair raises NumericalError.
    """
    if g.n < 1:
        raise QllabError("cannot diagonalize an empty vertex set")
    a = _dense(g)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    order = slice(None, None, -1)
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(vecs[:, order])
    residuals = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, residuals=residuals)


def eigenvalues(g: BiasedGraph) -> np.ndarray:
    """The eigenvalues of the adjacency matrix of g, non-increasing.

    With no eigenvectors to take residuals of, the values are checked
    against two exact identities of a Hermitian matrix A:
    |sum(lambda) - tr A| <= 1e-8 * ||A|| and
    |sum(lambda^2) - ||A||_F^2| <= 1e-8 * ||A||^2, with
    ||A|| = max(1, max |lambda|).  One eigenvalue off by delta moves the
    first sum by delta.  tr A and ||A||_F^2 are read off the edge arrays,
    as sum(diagonal) and sum(diagonal^2) + 2 sum(|bias|^2), not off the
    dense matrix the solver read, so a wrong dense matrix fails the check.
    Failure raises NumericalError.
    """
    if g.n < 1:
        raise QllabError("cannot diagonalize an empty vertex set")
    try:
        vals = np.linalg.eigvalsh(_dense(g))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    vals = np.ascontiguousarray(vals[::-1])
    norm = max(1.0, float(np.abs(vals).max()))
    trace_error = abs(float(vals.sum()) - float(g.diagonal.sum()))
    if trace_error > RESIDUAL_TOL * norm:
        raise NumericalError(f"eigenvalue trace error {trace_error:.3e} exceeds tolerance")
    frobenius = float(g.diagonal @ g.diagonal) + 2 * float(np.vdot(g.bias, g.bias).real)
    square_error = abs(float(vals @ vals) - frobenius)
    if square_error > RESIDUAL_TOL * norm * norm:
        raise NumericalError(
            f"eigenvalue square-sum error {square_error:.3e} exceeds tolerance"
        )
    return vals


def top_pair(g: BiasedGraph):
    """The top eigenvalue of the adjacency matrix of g and a unit eigenvector.

    Lanczos with full reorthogonalization (Parlett, The Symmetric Eigenvalue
    Problem), one classical Gram-Schmidt pass per step, runs on the
    edge-array operator `g.operator()` from the fixed start 1/sqrt(n) until
    the Ritz residual estimate falls to 1e-13 * max(1, |theta|); its basis
    grows with the steps taken.  The Ritz pair (theta, x) is
    returned only when two gates pass, with tau = 1e-8 * max(1, |theta|):
    ||A x - theta x|| <= tau (the residual check of `eigendecompose`), and a
    proof that lambda_max <= theta + tau (Ritz values are only lower bounds,
    so a small residual alone cannot show that theta is the top).  The proof
    tries, in order:
    - the Gershgorin bound of D^-1 A D, D = diag(|x|), read off the edge
      arrays in O(m) (`_scaled_gershgorin`): exact on regular nonnegative
      graphs and at the Perron vector of nonnegative ones, so it proves
      every `disorder-sweep` and Kuramoto top;
    - a Cholesky factorization of (theta + tau) I - A, which proves
      lambda_max < theta + tau on any graph in O(n^3); only this proof and
      the fallback below form the dense A.
    When the residual gate or both proofs fail, the top pair of
    `eigendecompose(g)` is returned instead.  Either proof returns the same
    Ritz pair.

    On a tied top level the vector is the projection of 1/sqrt(n) onto the
    top eigenspace, normalized: one fixed member of it.
    """
    if g.n < 1:
        raise QllabError("cannot diagonalize an empty vertex set")
    x = _lanczos_top(g)
    ax = g.operator()(x)
    theta = float(np.vdot(x, ax).real)
    tau = RESIDUAL_TOL * max(1.0, abs(theta))
    if np.linalg.norm(ax - theta * x) <= tau and (
        _scaled_gershgorin(g, x) <= theta + tau or _all_below(_dense(g), theta + tau)
    ):
        return theta, x
    spectrum = eigendecompose(g)
    return float(spectrum.eigenvalues[0]), spectrum.eigenvectors[:, 0]


# The one dense operand of the full solves, or None before the first; see
# the module docstring.
_operand = None


def _dense(g: BiasedGraph) -> np.ndarray:
    """g's adjacency, written into the kept operand.

    The operand is reused while the solves keep its (n, dtype); a solve of
    another shape replaces it, dropping the old array before making the
    new, so at most one is held.  Its contents last until the next call.
    """
    global _operand
    dtype = g.entries.dtype
    if _operand is None or _operand.shape != (g.n, g.n) or _operand.dtype != dtype:
        _operand = None
        _operand = np.empty((g.n, g.n), dtype=dtype)
    return g.adjacency(out=_operand)


def _scaled_gershgorin(g: BiasedGraph, x: np.ndarray) -> float:
    """max_i (a_ii + sum_j |a_ij| y_j / y_i) with y = |x| floored at
    _SCALE_FLOOR * max |x|, read off the edge arrays in O(m).

    This is the Gershgorin bound of D^-1 A D with D = diag(y), a similarity
    of A, so it bounds lambda_max for every Hermitian A.  It is exact at
    y = 1 on a regular nonnegative graph and at the Perron vector of any
    nonnegative one (Collatz-Wielandt).  Its rounding error, a few ulps of
    the bound, lies far below the 1e-8 margin `top_pair` compares it with.
    """
    y = np.abs(x)
    y = np.maximum(y, _SCALE_FLOOR * y.max())
    return float((g.diagonal + edge_operator(g.n, g.edges, np.abs(g.bias))(y) / y).max())


def level_is_simple(g: BiasedGraph, value: float, x: np.ndarray, window: float) -> bool:
    """Whether the top eigenvalue `value` of g's adjacency A, with its known
    unit eigenvector x, is the only eigenvalue within `window` of it; proved
    by one Cholesky factorization of (value - window) I - A + c x x^H, with
    c = max(1, |value|).

    On x the matrix reads c - window > 0, so it is positive definite exactly
    when every other eigenvalue lies more than window below value.  The
    caller must know that none lies above value (by more than a rounding of
    it): then a failed factorization puts another eigenvalue within window
    of the level.  A bottom level of g is the top of -g (biases and diagonal
    negated), with the same eigenvector.  The matrix is formed in the kept
    dense operand, with one n x n temporary for the outer product.
    """
    a = _dense(g)
    a -= np.outer(max(1.0, abs(value)) * x, x.conj())
    return _all_below(a, value - window)


def _all_below(a: np.ndarray, bound: float) -> bool:
    """Whether every eigenvalue of the Hermitian `a` is below bound, proved
    by a Cholesky factorization of bound * I - a, formed in `a` itself."""
    np.negative(a, out=a)
    a.flat[:: len(a) + 1] += bound
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _lanczos_top(g: BiasedGraph) -> np.ndarray:
    """The unit top Ritz vector of g's adjacency from the start 1/sqrt(n),
    once its residual estimate is below _LANCZOS_TOL * max(1, |theta|)."""
    n = g.n
    dtype = g.entries.dtype
    # row k is the Lanczos vector q_k; rows for the first two Ritz checks,
    # doubled as the steps need them
    basis = np.empty((min(n, 2 * _FIRST_STRIDE), n), dtype=dtype)
    alpha, beta = np.empty(n), np.empty(n)
    q = np.full(n, 1.0 / np.sqrt(n), dtype=dtype)
    apply = g.operator()
    check, previous = 0, None
    for k in range(n):
        if k == len(basis):
            basis = np.concatenate([basis, np.empty((min(k, n - k), n), dtype=dtype)])
        basis[k] = q
        done = basis[: k + 1]
        w = apply(q)
        # one classical Gram-Schmidt pass against the whole basis; the gates
        # of `top_pair` catch a pair it leaves inaccurate.  h = Q^H w, taken
        # as conj(Q conj(w)) so that Q is not copied
        h = (done @ w.conj()).conj()
        alpha[k] = h[k].real
        w -= h @ done
        beta[k] = np.linalg.norm(w)
        # Solving the tridiagonal Ritz problem costs more than a step, so it
        # is solved at steps predicted from the estimate's geometric decay,
        # and at once when the Krylov space is invariant (as after the one
        # step on a regular graph).
        if k == check or k == n - 1 or beta[k] <= _LANCZOS_TOL:
            t = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            ritz, s = np.linalg.eigh(t)
            estimate = beta[k] * abs(s[-1, -1])
            target = _LANCZOS_TOL * max(1.0, abs(ritz[-1]))
            if estimate <= target:
                break
            check = k + _steps_to(target, (k, estimate), previous)
            previous = (k, estimate)
        q = w / beta[k]
    x = s[:, -1] @ done
    return x / np.linalg.norm(x)


def _steps_to(target, current, previous) -> int:
    """Lanczos steps until the residual estimate of `current` = (step,
    estimate) should reach target, extrapolating its decay since `previous`;
    from 1 to _MAX_STRIDE."""
    if previous is None:
        return _FIRST_STRIDE
    (k, estimate), (j, before) = current, previous
    rate = math.log(before / estimate) / (k - j)
    if rate <= 0:
        return _MAX_STRIDE
    return min(_MAX_STRIDE, max(1, math.ceil(math.log(estimate / target) / rate)))


def _extreme_index(values) -> int:
    """Index of the emergent level in the non-increasing `values`: the end of
    largest |lambda|.  The bottom wins only when its |lambda| exceeds the
    top's by more than _MAGNITUDE_TIE_TOL * max(1, max |lambda|), and then
    gives the first member of its level (values within 1e-8 * max(1,
    |lambda|) of it)."""
    top, bottom = float(values[0]), float(values[-1])
    scale = max(1.0, abs(top), abs(bottom))
    if abs(bottom) <= abs(top) + _MAGNITUDE_TIE_TOL * scale:
        return 0
    return int(np.argmax(np.asarray(values) - bottom <= RESIDUAL_TOL * max(1.0, abs(bottom))))


def _degeneracy_window(values) -> float:
    """DEGENERACY_TOL * max(1, max |lambda|) over the eigenvalues `values`."""
    return DEGENERACY_TOL * max(1.0, float(np.abs(values).max()))


@dataclass
class Quotient:
    """The quotient of a graph's block partition.

    h is H_eff = J^H A J over the unit block indicators J, in the order of
    g.blocks (real when no entry has an imaginary part); aj is A J itself,
    one column per block; deviation is the largest gap between a vertex's
    weighted neighbour sum into a block and the mean of its block's sums.
    """

    h: np.ndarray
    aj: np.ndarray
    deviation: float

    @property
    def equitable(self) -> bool:
        return self.deviation <= EQUITABLE_TOL


def quotient(g: BiasedGraph) -> Quotient:
    """The block quotient of g, read off its edge arrays in O(m k).

    Each vertex's weighted neighbour sums into every block are A applied to
    the n x k block indicators, through `g.operator()`; no n x n matrix is
    formed.
    """
    if g.blocks is None:
        raise MissingLabelsError("graph has no block labels")
    k = len(g.blocks)
    sums = g.operator()((g.block_of[:, None] == np.arange(k)).astype(float)).astype(complex, copy=False)
    sizes = np.bincount(g.block_of, minlength=k)
    mean = np.zeros((k, k), dtype=complex)
    np.add.at(mean, g.block_of, sums)
    mean /= sizes[:, None]
    deviation = float(np.abs(sums - mean[g.block_of]).max())
    # H_eff[i, j] = (sum over block i of the sums into j) / sqrt(n_i n_j)
    h = mean * np.sqrt(sizes[:, None] / sizes[None, :])
    h = (h + h.conj().T) / 2
    return Quotient(
        h=h if np.any(h.imag) else np.ascontiguousarray(h.real),
        aj=sums / np.sqrt(sizes),
        deviation=deviation,
    )


@dataclass
class QuotientState:
    """One eigenstate J u of an equitable block partition.

    coefficients is u, on the unit block indicators in the order of
    g.blocks.  x = J u lies in span(J), so its projection residual, the
    `residual` of a dense-path state, is 0; eigen_residual is
    ||A x - mu x|| instead.  rank is the state's index in the
    non-increasing spectrum: that of the value nearest mu, so a bulk value
    inside mu's degeneracy window keeps its own.  gap is the distance to the
    nearest eigenvalue outside the QL space, None when there is none.
    multiplicity counts the eigenvalues of the spectrum within the
    degeneracy window of mu (the state's own included); degenerate flags a
    level that the spectrum holds more often than H_eff does: a bulk state
    is tied with it.
    """

    eigenvalue: float
    coefficients: np.ndarray
    eigen_residual: float
    rank: int
    gap: float | None
    multiplicity: int
    degenerate: bool


def quotient_states(g: BiasedGraph, quo: Quotient, values: np.ndarray) -> list[QuotientState]:
    """The QL states of g from an equitable quotient, ranked in values, g's
    spectrum in non-increasing order.

    The states are J U, with U the eigenvectors of the k x k H_eff, in
    non-increasing order of mu.  On a level of H_eff (values within 1e-8 *
    max(1, |mu|)) the basis is the Gram-Schmidt orthonormalization of P
    e_0, P e_1, ... in block order, with P the level's projector and
    remainders below DEGENERACY_TOL skipped.  Each state takes the phase of
    `fixed_phase`.  These levels, their coefficients and the residual gate
    below are read by `_quotient_levels`, which `emergent_state` shares, so
    both report one state bit for bit.

    Each state x must pass ||A x - mu x|| <= 1e-8 * max(1, |mu|); a unit
    x with that residual proves an eigenvalue within it.  values must hold
    every QL value within the degeneracy window DEGENERACY_TOL * max(1,
    max |lambda|) as often as H_eff does.  Failure of either raises
    NumericalError.
    """
    mu, c, _, residual = _quotient_levels(g, quo)
    window = _degeneracy_window(values)
    near = np.abs(values[None, :] - mu[:, None]) <= window
    ties = np.abs(mu[None, :] - mu[:, None]) <= window
    in_spectrum, in_quotient = near.sum(axis=1), ties.sum(axis=1)
    if np.any(in_spectrum < in_quotient):
        k = int(np.argmax(in_spectrum < in_quotient))
        raise NumericalError(f"spectrum misses quotient eigenvalue {mu[k]:.12g}")
    # each level (a run of tied mu) takes the free values in its window
    # nearest it, as many as it holds states, in spectrum order; a bulk value
    # inside the window stays in the bulk.  Values within the residual gate
    # of mu cannot be told from it, and go in spectrum order.
    rank = np.empty(len(mu), dtype=int)
    free = np.ones(len(values), dtype=bool)
    lo = 0
    for hi in range(1, len(mu) + 1):
        if hi < len(mu) and ties[hi - 1, hi]:
            continue
        candidates = np.flatnonzero(near[lo:hi].any(axis=0) & free)
        if len(candidates) < hi - lo:
            raise NumericalError(f"spectrum misses quotient eigenvalue {mu[lo]:.12g}")
        distance = np.abs(values[candidates, None] - mu[None, lo:hi]).min(axis=1)
        distance = np.maximum(distance, RESIDUAL_TOL * max(1.0, abs(mu[lo])))
        rank[lo:hi] = np.sort(candidates[np.argsort(distance, kind="stable")[: hi - lo]])
        free[rank[lo:hi]] = False
        lo = hi
    bulk = values[free]
    states = []
    for j in range(len(mu)):
        gap = float(np.abs(bulk - mu[j]).min()) if len(bulk) else None
        states.append(
            QuotientState(
                eigenvalue=float(mu[j]),
                coefficients=c[:, j].astype(complex),
                eigen_residual=float(residual[j]),
                rank=int(rank[j]),
                gap=gap,
                multiplicity=int(in_spectrum[j]),
                degenerate=bool(in_spectrum[j] > in_quotient[j]),
            )
        )
    return states


def _quotient_levels(g: BiasedGraph, quo: Quotient):
    """The levels of an equitable quotient, checked as `quotient_states`
    describes: (mu non-increasing, coefficients U (k x k), states x = J U
    (n x k), eigen residuals ||A x - mu x||)."""
    if not quo.equitable:
        raise QllabError(f"block partition is not equitable (deviation {quo.deviation:.3e})")
    mu, u = np.linalg.eigh(quo.h)
    mu, u = mu[::-1], u[:, ::-1]
    coefficients = []
    lo = 0
    for hi in range(1, len(mu) + 1):
        if hi < len(mu) and mu[hi - 1] - mu[hi] <= RESIDUAL_TOL * max(1.0, abs(mu[hi])):
            continue
        level = _canonical_basis(u[:, lo:hi]) if hi - lo > 1 else u[:, lo:hi]
        coefficients += [fixed_phase(c) for c in level.T]
        lo = hi
    c = np.stack(coefficients, axis=1)
    sizes = np.bincount(g.block_of, minlength=len(mu))
    x = c[g.block_of] / np.sqrt(sizes[g.block_of])[:, None]
    residual = np.linalg.norm(quo.aj @ c - x * mu, axis=0)
    check_eigenpairs(mu, residual, "quotient state")
    return mu, c, x, residual


@dataclass
class EmergentState:
    """A bit's emergent level: its eigenvalue, its state on the bit's blocks,
    and whether another eigenvalue lies in its degeneracy window."""

    eigenvalue: float
    state: EffectiveState
    degenerate: bool


def emergent_state(g: BiasedGraph) -> EmergentState:
    """The emergent level of the labeled g: the extreme value of largest
    |lambda| (`_extreme_index`) among the levels of H_eff on an equitable
    partition and in the spectrum otherwise, degenerate when another
    eigenvalue lies in its `_degeneracy_window`, and its state on g's blocks.

    On an equitable partition the candidate is read as `quotient_states`
    reads it (`_quotient_levels`), with the exact state (u, 0.0); a level
    H_eff holds twice is degenerate with no solve.
    On any other graph with real nonnegative entries and diagonal it is
    `top_pair`'s, whose state is its vector's `project_blocks`.  Where a
    bound puts the candidate at the end of the spectrum, one
    `level_is_simple` Cholesky flags it and no eigenvalue is solved:
    Perron-Frobenius at the top of a nonnegative graph, and on an equitable
    one the O(m) Gershgorin bounds max_i(a_ii + sum_j |a_ij|) and
    min_i(a_ii - sum_j |a_ij|), met to within 1e-8 * max(1, |mu|).
    Otherwise `eigenvalues` places the level once: an equitable one is the
    `extreme_state` of `quotient_states`, which checks that the spectrum
    holds it, and any other takes the vector of `top_pair` on g for a top
    level and on -g for a bottom one (on a tied level, its fixed member).
    """
    quo = quotient(g)
    if quo.equitable:
        mu, c, x, _ = _quotient_levels(g, quo)
        j = _extreme_index(mu)
        value, x, window = float(mu[j]), x[:, j], _degeneracy_window(mu)
        state = EffectiveState(c[:, j].astype(complex), 0.0)
        if np.count_nonzero(np.abs(mu - value) <= window) > 1:
            return EmergentState(value, state, True)
        spread = edge_operator(g.n, g.edges, np.abs(g.bias))(np.ones(g.n))
        slack = RESIDUAL_TOL * max(1.0, abs(value))
        top = value >= (g.diagonal + spread).max() - slack
        if not (top or value <= (g.diagonal - spread).min() + slack):
            ql = extreme_state(quotient_states(g, quo, eigenvalues(g)))
            return EmergentState(ql.eigenvalue, EffectiveState(ql.coefficients, 0.0), ql.multiplicity > 1)
    elif not np.iscomplexobj(g.entries) and (g.entries >= 0).all() and (g.diagonal >= 0).all():
        value, x = top_pair(g)
        top, window, state = True, _degeneracy_window([value]), project_blocks(g, g.blocks, x)
    else:
        vals = eigenvalues(g)
        i = _extreme_index(vals)
        degenerate = np.count_nonzero(np.abs(vals - vals[i]) <= _degeneracy_window(vals)) > 1
        _, x = top_pair(g if i == 0 else _negated(g))
        return EmergentState(float(vals[i]), project_blocks(g, g.blocks, x), bool(degenerate))
    simple = level_is_simple(g, value, x, window) if top else level_is_simple(_negated(g), -value, x, window)
    return EmergentState(value, state, not simple)


def _negated(g: BiasedGraph) -> BiasedGraph:
    """-g, biases and diagonal negated: its top level is g's bottom one."""
    return replace(g, bias=-g.bias, diagonal=-g.diagonal)


def _canonical_basis(level: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(level) by Gram-Schmidt of P e_0, P e_1, ...,
    with P the projector onto it."""
    projector = level @ level.conj().T
    basis = []
    for column in projector.T:
        for b in basis:
            column = column - np.vdot(b, column) * b
        norm = np.linalg.norm(column)
        if norm > DEGENERACY_TOL:
            basis.append(column / norm)
            if len(basis) == level.shape[1]:
                return np.stack(basis, axis=1)
    raise NumericalError("level projector has lower rank than its level")


def fixed_phase(c: np.ndarray) -> np.ndarray:
    """c times the phase that makes its first largest entry real and
    positive: the phase rule of every reported state.  Entries below the
    smallest normal float, zero among them, carry no phase, and a c with
    no other entry is returned as it is."""
    magnitude = np.abs(c)
    # a tiny bulk state ties all its entries, exact zeros among them
    tied = (magnitude >= magnitude.max() - DEGENERACY_TOL) & (magnitude >= np.finfo(float).tiny)
    if not tied.any():
        return c + 0
    k = int(np.argmax(tied))
    # a canonical c keeps every bit; numpy's complex x / x can round to 1 - ulp
    phase = 1.0 if c[k] == magnitude[k] else c[k].conj() / magnitude[k]
    c = c * phase + 0  # + 0 turns -0.0 into 0.0
    c[k] = magnitude[k]
    return c


def extreme_state(states) -> QuotientState:
    """The quotient state of the emergent level, by `emergent_state`'s rule
    (`_extreme_index`) over the states' mu."""
    return states[_extreme_index([s.eigenvalue for s in states])]


@dataclass
class EnsembleSpectrum:
    """Histogram of the eigenvalues of an ensemble of graphs."""

    bin_edges: np.ndarray
    counts: np.ndarray


def ensemble_spectrum(spectra, bins: int) -> EnsembleSpectrum:
    """Histogram the solved spectra of an ensemble, one 1-D array per graph.

    The bins span the smallest to the largest eigenvalue (a unit interval
    around them when all are equal), so every eigenvalue is counted.
    """
    if len(spectra) < 1:
        raise QllabError("need at least one realization")
    values = np.concatenate(spectra)
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return EnsembleSpectrum(bin_edges=edges, counts=counts)
