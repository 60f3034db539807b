"""Dense Hermitian eigensolvers and spectral diagnostics.

Eigenvalues are always reported in non-increasing order.  Two dense paths
share one operator (`_dense_operator`):

- `eigendecompose` returns the full eigensystem and checks every eigenpair
  residual.  Eigenvector readers use it, but `product` composes a full
  Cartesian product from its factors (`qlproduct.verify_spectrum_composition`).
- `eigenvalues` returns the spectrum alone, from `eigvalsh`, and checks the
  trace and Frobenius-norm identities instead.  The ensemble histogram,
  `spectrum.csv` and `ramanujan_check` use it.  At n = 512 it takes about
  17 ms against 44 ms for `eigendecompose` (one x86 core, one BLAS thread).

Graphs that reach these solvers are small enough for exact dense solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotRegularError, NumericalError, QllabError
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


def _degree_scan(g: BiasedGraph, d: int):
    deg = g.degrees()
    if not np.all(deg == d):
        bad = int(np.argmax(deg != d))
        raise NotRegularError(
            f"vertex {bad} has degree {int(deg[bad])}, expected {d}"
        )


@dataclass
class RamanujanReport:
    is_ramanujan: bool
    max_nontrivial: float
    bound: float


def ramanujan_check(g: BiasedGraph, d: int, bipartite: bool = False) -> RamanujanReport:
    """Test |lambda_j| <= 2 sqrt(d-1) for the nontrivial eigenvalues.

    j runs over 1..n-1, or 1..n-2 when the bipartite flag is set (the
    mirrored -d eigenvalue of a bipartite graph is also trivial).
    """
    _degree_scan(g, d)
    vals = eigenvalues(g)
    nontrivial = vals[1:-1] if bipartite else vals[1:]
    if len(nontrivial) == 0:
        raise QllabError("no nontrivial eigenvalues to test")
    bound = 2.0 * math.sqrt(d - 1)
    biggest = float(np.abs(nontrivial).max())
    return RamanujanReport(
        is_ramanujan=biggest <= bound + 1e-9,
        max_nontrivial=biggest,
        bound=bound,
    )


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
    """Histogram of eigenvalues accumulated across graph realizations."""

    bin_edges: np.ndarray
    counts: np.ndarray
    realizations: int
    metadata: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def ensemble_spectrum(
    make_graph,
    realizations: int,
    bins: int,
    value_range=None,
    metadata=None,
) -> EnsembleSpectrum:
    """Histogram the spectra of make_graph(0..realizations-1).

    make_graph(i) returns a graph, or its eigenvalues already solved as a
    1-D array, so a caller that needs the values itself solves each graph
    once.
    Eigenvalues outside an explicit value_range are clipped into the end
    bins so that the total count stays realizations * n.
    """
    if realizations < 1:
        raise QllabError("need at least one realization")
    collected = []
    for i in range(realizations):
        g = make_graph(i)
        collected.append(g if isinstance(g, np.ndarray) else eigenvalues(g))
    values = np.concatenate(collected)
    if value_range is None:
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = value_range
        values = np.clip(values, lo, hi)
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return EnsembleSpectrum(
        bin_edges=edges,
        counts=counts,
        realizations=realizations,
        metadata=dict(metadata or {}),
    )
