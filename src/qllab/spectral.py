"""Dense Hermitian eigensolvers and the readings taken off a spectrum.

Eigenvalues are always reported in non-increasing order.  Three paths
share one operator (`_dense_operator`):

- `eigendecompose` returns the full eigensystem and checks every eigenpair
  residual.  `qlbit` (which reads both extreme states), contracted
  `product` and `cheeger` use it; a full `product` composes its eigensystem
  from the factors' (`qlproduct.verify_spectrum_composition`).
- `eigenvalues` returns the spectrum alone, from `eigvalsh`, and checks the
  trace and Frobenius-norm identities instead.  `spectrum` uses it.  At
  n = 512 it takes about 17 ms against 44 ms for `eigendecompose`.
- `top_pair` returns only the top eigenvalue and one unit eigenvector, by
  Lanczos, and proves both before returning them; when a proof fails it
  returns the top pair of `eigendecompose`.  `disorder-sweep`, the witness
  readout and the Kuramoto records read nothing else and use it.  At
  n = 256 (random 6-regular graphs, edges kept with probability r) it takes
  about 1.2 ms at r = 1 (one step), 3 ms at r = 0.7 and 3.7 ms at r = 0.4,
  against 7.5 ms for `eigendecompose`.

Times are for one x86 core and one BLAS thread.

Off a solved spectrum, `emergent_state` picks the emergent eigenpair,
`spectral_gap` reads lambda_0 - lambda_1, and `ensemble_spectrum`
histograms the eigenvalues of many realizations.  Graphs that reach these
solvers are small enough for exact dense solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, QllabError
from .graph import BiasedGraph

# Eigenvalues closer than this (times max(1, |lambda_0|)) count as degenerate.
DEGENERACY_TOL = 1e-6

_RESIDUAL_TOL = 1e-8

# Lanczos stops once its Ritz residual estimate is this small (times
# max(1, |theta|)); far below _RESIDUAL_TOL, so every printed digit holds.
_LANCZOS_TOL = 1e-13
# Lanczos steps between two solves of its tridiagonal Ritz problem: the
# first stride, and the cap on the strides extrapolated after it.
_FIRST_STRIDE, _MAX_STRIDE = 8, 32


@dataclass
class Spectrum:
    """Full eigensystem of a Hermitian adjacency matrix.

    eigenvalues are sorted descending; eigenvectors[:, i] belongs to
    eigenvalues[i] and the columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def degeneracy_window(self) -> float:
        scale = max(1.0, abs(float(self.eigenvalues[0]))) if self.n else 1.0
        return DEGENERACY_TOL * scale


def _dense_operator(g: BiasedGraph) -> np.ndarray:
    """The adjacency matrix of g, real when no entry has an imaginary part.

    The real matrix is a contiguous copy: a matrix-vector product on the
    strided view `a.real` takes about five times as long.
    """
    a = g.adjacency()
    return a if np.any(a.imag) else np.ascontiguousarray(a.real)


def eigendecompose(g: BiasedGraph) -> Spectrum:
    """Diagonalize the adjacency matrix of g.

    Residuals ||A v - lambda v|| are checked against 1e-8 * ||A||; failure
    to meet that raises NumericalError.
    """
    if g.n < 1:
        raise QllabError("cannot diagonalize an empty vertex set")
    a = _dense_operator(g)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    order = slice(None, None, -1)
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(vecs[:, order])
    norm = max(1.0, float(np.abs(vals).max()))
    residual = np.linalg.norm(a @ vecs - vecs * vals, axis=0).max()
    if residual > _RESIDUAL_TOL * norm:
        raise NumericalError(f"eigenpair residual {residual:.3e} exceeds tolerance")
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def eigenvalues(g: BiasedGraph) -> np.ndarray:
    """The eigenvalues of the adjacency matrix of g, non-increasing.

    With no eigenvectors to take residuals of, the values are checked
    against two exact identities of a Hermitian matrix A:
    |sum(lambda) - tr A| <= 1e-8 * ||A|| and
    |sum(lambda^2) - ||A||_F^2| <= 1e-8 * ||A||^2, with
    ||A|| = max(1, max |lambda|).  One eigenvalue off by delta moves the
    first sum by delta.  Failure raises NumericalError.
    """
    if g.n < 1:
        raise QllabError("cannot diagonalize an empty vertex set")
    a = _dense_operator(g)
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    vals = np.ascontiguousarray(vals[::-1])
    norm = max(1.0, float(np.abs(vals).max()))
    trace_error = abs(float(vals.sum()) - float(np.trace(a).real))
    if trace_error > _RESIDUAL_TOL * norm:
        raise NumericalError(f"eigenvalue trace error {trace_error:.3e} exceeds tolerance")
    frobenius = float(np.vdot(a, a).real)
    square_error = abs(float(vals @ vals) - frobenius)
    if square_error > _RESIDUAL_TOL * norm * norm:
        raise NumericalError(
            f"eigenvalue square-sum error {square_error:.3e} exceeds tolerance"
        )
    return vals


def top_pair(g: BiasedGraph):
    """The top eigenvalue of the adjacency matrix of g and a unit eigenvector.

    Lanczos with full reorthogonalization (Parlett, The Symmetric Eigenvalue
    Problem) runs from the fixed start 1/sqrt(n) until the Ritz residual
    estimate falls to 1e-13 * max(1, |theta|).  The Ritz pair (theta, x) is
    returned only when two gates pass, with tau = 1e-8 * max(1, |theta|):
    ||A x - theta x|| <= tau (the residual check of `eigendecompose`), and a
    Cholesky factorization of (theta + tau) I - A succeeds, which proves
    lambda_max < theta + tau (Ritz values are only lower bounds, so a small
    residual alone cannot show that theta is the top).  When either gate
    fails, the top pair of `eigendecompose(g)` is returned instead.

    On a tied top level the vector is the projection of 1/sqrt(n) onto the
    top eigenspace, normalized: one fixed member of it.
    """
    if g.n < 1:
        raise QllabError("cannot diagonalize an empty vertex set")
    a = _dense_operator(g)
    x = _lanczos_top(a)
    ax = a @ x
    theta = float(np.vdot(x, ax).real)
    tau = _RESIDUAL_TOL * max(1.0, abs(theta))
    if np.linalg.norm(ax - theta * x) <= tau and _all_below(a, theta + tau):
        return theta, x
    spectrum = eigendecompose(g)
    return float(spectrum.eigenvalues[0]), spectrum.eigenvectors[:, 0]


def _all_below(a: np.ndarray, bound: float) -> bool:
    """Whether every eigenvalue of the Hermitian `a` is below bound, proved
    by a Cholesky factorization of bound * I - a."""
    shifted = -a
    shifted.flat[:: len(a) + 1] += bound
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _lanczos_top(a: np.ndarray) -> np.ndarray:
    """The unit top Ritz vector of `a` from the start 1/sqrt(n), once its
    residual estimate is below _LANCZOS_TOL * max(1, |theta|)."""
    n = a.shape[0]
    complex_ = np.iscomplexobj(a)
    basis = np.empty((n, n), dtype=a.dtype)  # row k is the Lanczos vector q_k
    alpha, beta = np.empty(n), np.empty(n)
    q = np.full(n, 1.0 / np.sqrt(n), dtype=a.dtype)
    check, previous = 0, None
    for k in range(n):
        basis[k] = q
        done = basis[: k + 1]
        adjoint = done.conj() if complex_ else done
        w = a @ q
        h = adjoint @ w
        alpha[k] = h[k].real
        w -= h @ done
        w -= (adjoint @ w) @ done  # "twice is enough" (Kahan, in Parlett)
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


def spectral_gap(spectrum: Spectrum) -> float:
    """lambda_0 - lambda_1."""
    if spectrum.n < 2:
        raise QllabError("spectral gap needs at least two eigenvalues")
    return float(spectrum.eigenvalues[0] - spectrum.eigenvalues[1])


@dataclass
class EmergentState:
    eigenvalue: float
    eigenvector: np.ndarray
    degenerate: bool


def emergent_state(spectrum: Spectrum, policy: str = "highest") -> EmergentState:
    """Select the emergent eigenpair.

    policy 'highest' picks lambda_0; 'highest_magnitude' picks the extreme
    eigenvalue of largest absolute value, breaking ties toward the positive
    one (then the lower index).  The result is flagged degenerate when any
    other eigenvalue falls inside the degeneracy window.
    """
    vals = spectrum.eigenvalues
    if policy == "highest":
        idx = 0
    elif policy == "highest_magnitude":
        scale = max(1.0, float(np.abs(vals).max()))
        if abs(vals[-1]) > abs(vals[0]) + 1e-12 * scale:
            idx = spectrum.n - 1
        else:
            idx = 0
    else:
        raise QllabError(f"unknown emergent-state policy {policy!r}")
    window = spectrum.degeneracy_window()
    others = np.delete(vals, idx)
    degenerate = bool(len(others)) and bool(
        np.any(np.abs(others - vals[idx]) <= window)
    )
    return EmergentState(
        eigenvalue=float(vals[idx]),
        eigenvector=spectrum.eigenvectors[:, idx],
        degenerate=degenerate,
    )


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
