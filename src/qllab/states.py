"""Density matrices of effective states and the quantities read off them.

`mixture_purity` gives the purity of an equal-weight ensemble of state
vectors from their Gram matrix; `disorder-sweep` reports it.  `DensityMatrix`
checks the density-matrix axioms, and `concurrence` is the Wootters
two-qubit entanglement measure of a 4 x 4 density matrix, the quantity the
two-bit product states are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QllabError

_TOL = 1e-10

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


@dataclass
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise QllabError("density matrix must be square")
        if abs(np.trace(m) - 1.0) > _TOL:
            raise QllabError(f"trace {np.trace(m):.12g} is not 1")
        if np.abs(m - m.T.conj()).max() > _TOL:
            raise QllabError("density matrix is not Hermitian")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -_TOL:
            raise QllabError(f"negative eigenvalue {evals.min():.3e}")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def density_from_state(c) -> DensityMatrix:
    """Pure-state density matrix |c><c| from a normalized coefficient vector."""
    c = np.asarray(c, dtype=complex)
    norm = np.linalg.norm(c)
    if abs(norm - 1.0) > 1e-8:
        raise QllabError(f"state norm {norm:.12g} is not 1")
    return DensityMatrix(np.outer(c, c.conj()))


def mixture_purity(vectors) -> float:
    """trace(rho^2) of the equal-weight mixture of the columns of `vectors`.

    For unit columns w_1..w_R, rho = (1/R) sum_r w_r w_r^* has
    trace(rho^2) = (1/R^2) sum_{r,s} |<w_r, w_s>|^2, read off the R x R
    Gram matrix without forming the dim x dim rho.
    """
    w = np.asarray(vectors)
    gram = w.conj().T @ w
    return float((np.abs(gram) ** 2).sum()) / w.shape[1] ** 2


def concurrence(rho: DensityMatrix) -> float:
    """Wootters two-qubit concurrence.

    max(0, s1 - s2 - s3 - s4) with s_i the decreasing square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y).  Computed as the singular
    values of sqrt(rho) (Y x Y) sqrt(rho)*, which is the same set but
    avoids taking square roots of eigensolver noise near zero.
    """
    if rho.dim != 4:
        raise QllabError("concurrence is defined for 4x4 density matrices")
    yy = np.kron(PAULI_Y, PAULI_Y)
    evals, vecs = np.linalg.eigh(rho.matrix)
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.T.conj()
    s = np.linalg.svd(root @ yy @ root.conj(), compute_uv=False)
    return float(max(0.0, s[0] - s[1] - s[2] - s[3]))
