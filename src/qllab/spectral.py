"""Dense Hermitian eigensolvers and the readings taken off a spectrum.

Eigenvalues are always reported in non-increasing order.  Two dense paths
share one operator (`_dense_operator`):

- `eigendecompose` returns the full eigensystem and checks every eigenpair
  residual.  Eigenvector readers use it, but `product` composes a full
  Cartesian product from its factors (`qlproduct.verify_spectrum_composition`).
- `eigenvalues` returns the spectrum alone, from `eigvalsh`, and checks the
  trace and Frobenius-norm identities instead.  `spectrum` uses it.  At
  n = 512 it takes about 17 ms against 44 ms for `eigendecompose` (one x86
  core, one BLAS thread).

Off a solved spectrum, `emergent_state` picks the emergent eigenpair,
`spectral_gap` reads lambda_0 - lambda_1, and `ensemble_spectrum`
histograms the eigenvalues of many realizations.  Graphs that reach these
solvers are small enough for exact dense solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, QllabError
from .graph import BiasedGraph

# Eigenvalues closer than this (times max(1, |lambda_0|)) count as degenerate.
DEGENERACY_TOL = 1e-6

_RESIDUAL_TOL = 1e-8


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
    """The adjacency matrix of g, real when no entry has an imaginary part."""
    a = g.adjacency()
    return a if np.any(a.imag) else a.real


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
