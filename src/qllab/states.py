"""Density matrices of effective states and the quantities read off them.

`mixture_purity` gives the purity of an equal-weight ensemble of state
vectors from their Gram matrix; `disorder-sweep` reports it.  `DensityMatrix`
checks the density-matrix axioms, and `concurrence` is the Wootters
two-qubit entanglement measure of a 4 x 4 density matrix, the quantity the
two-bit product states are tested against.  `tensor_inner` and the
permutation operators on n-fold tensor powers of a two-dimensional space
(`permutation_operator`, `symmetrizer`, `alternator`) fix the tensor-basis
conventions of multi-bit products, first factor fastest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import QllabError, TooLargeError

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


def tensor_inner(u, x, v, y) -> complex:
    """<u (x) x, v (x) y> = <u, v> <x, y>."""
    u, x, v, y = (np.asarray(z, dtype=complex) for z in (u, x, v, y))
    if u.shape != v.shape or x.shape != y.shape:
        raise QllabError("mismatched factor dimensions")
    return complex(np.vdot(u, v) * np.vdot(x, y))


# ----------------------------------------------------------------------
# Permutation operators on T^n(V), dim V = 2
# ----------------------------------------------------------------------

_MAX_TENSOR_FACTORS = 8


def permutation_operator(sigma) -> np.ndarray:
    """0/1 matrix of P_sigma on the 2^n tensor basis (first factor fastest).

    sigma is given as the tuple of images (0-indexed): position i is sent
    to sigma[i].  P_sigma maps v_1 (x) ... (x) v_n to the product whose
    i-th factor is v_{sigma^{-1}(i)}.
    """
    sigma = tuple(sigma)
    n = len(sigma)
    if n > _MAX_TENSOR_FACTORS:
        raise TooLargeError(f"at most {_MAX_TENSOR_FACTORS} tensor factors")
    if sorted(sigma) != list(range(n)):
        raise QllabError(f"{sigma} is not a permutation of 0..{n - 1}")
    dim = 1 << n
    p = np.zeros((dim, dim))
    for k in range(dim):
        kp = 0
        for i in range(n):
            if (k >> i) & 1:
                kp |= 1 << sigma[i]
        p[kp, k] = 1.0
    return p


def _signature(sigma) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def symmetrizer(n: int) -> np.ndarray:
    """S_n = (1/n!) sum_sigma P_sigma on the 2^n tensor basis."""
    return _permutation_average(n, signed=False)


def alternator(n: int) -> np.ndarray:
    """A_n = (1/n!) sum_sigma sgn(sigma) P_sigma on the 2^n tensor basis."""
    return _permutation_average(n, signed=True)


def _permutation_average(n, signed):
    if not 1 <= n <= _MAX_TENSOR_FACTORS:
        raise TooLargeError(f"need 1 <= n <= {_MAX_TENSOR_FACTORS}")
    dim = 1 << n
    total = np.zeros((dim, dim))
    count = 0
    for sigma in itertools.permutations(range(n)):
        term = permutation_operator(sigma)
        if signed:
            term = _signature(sigma) * term
        total += term
        count += 1
    return total / count
