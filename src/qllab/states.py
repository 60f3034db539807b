"""Density-matrix analytics over effective states.

Covers purity, the two-qubit Wootters concurrence, Bell combinations in the
product basis, mixtures built from degenerate eigenvalue clusters, tensor
inner products, and the symmetrizer/alternator operators on n-fold tensor
powers of a two-dimensional space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, QllabError, TooLargeError
from .qlproduct import project_product_state
from .spectral import Spectrum

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


def convex_sum(rhos, weights) -> DensityMatrix:
    """Weighted mixture of density matrices; weights must sum to one."""
    weights = np.asarray(weights, dtype=float)
    if len(rhos) != len(weights) or len(rhos) == 0:
        raise QllabError("need matching, nonempty lists of states and weights")
    if weights.min() < -1e-12 or abs(weights.sum() - 1.0) > 1e-12:
        raise QllabError("weights must be nonnegative and sum to 1")
    total = sum(w * r.matrix for w, r in zip(weights, rhos))
    return DensityMatrix(total)


def purity(rho: DensityMatrix) -> float:
    """trace(rho^2), between 1/dim and 1."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


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


def bell_states() -> dict:
    """The four Bell coefficient vectors in the canonical product basis.

    Basis order (a1b1, a2b1, a1b2, a2b2), first bit fastest.
    """
    s = 1.0 / math.sqrt(2.0)
    return {
        "phi_plus": np.array([s, 0, 0, s], dtype=complex),
        "phi_minus": np.array([s, 0, 0, -s], dtype=complex),
        "psi_plus": np.array([0, s, s, 0], dtype=complex),
        "psi_minus": np.array([0, -s, s, 0], dtype=complex),
    }


def degenerate_mixture(g, spectrum: Spectrum, window=None, index=1) -> DensityMatrix:
    """Equal-weight mixture of the projected states of a degenerate cluster.

    The cluster is every eigenvalue within `window` of eigenvalue `index`
    (default: the second eigenvalue, which is the middle pair of a
    symmetric two-bit product).  Each member eigenvector is projected onto
    the product basis, renormalized with the residual discarded, and the
    pure densities are mixed with equal weights.
    """
    if window is None:
        window = spectrum.degeneracy_window()
    vals = spectrum.eigenvalues
    if not 0 <= index < spectrum.n:
        raise QllabError(f"eigenvalue index {index} out of range")
    members = np.flatnonzero(np.abs(vals - vals[index]) <= window)
    if len(members) < 2:
        raise DegeneracyError(
            f"eigenvalue {vals[index]:.6g} has no degenerate partner "
            f"within window {window:.3g}"
        )
    rhos = []
    for i in members:
        eff = project_product_state(g, spectrum.eigenvectors[:, i])
        rhos.append(density_from_state(eff.normalized()))
    return convex_sum(rhos, np.full(len(rhos), 1.0 / len(rhos)))


def tensor_inner(u, x, v, y) -> complex:
    """<u (x) x, v (x) y> = <u, v> <x, y>."""
    u, x, v, y = (np.asarray(z, dtype=complex) for z in (u, x, v, y))
    if u.shape != v.shape or x.shape != y.shape:
        raise QllabError("mismatched factor dimensions")
    return complex(np.vdot(u, v) * np.vdot(x, y))


def state_fidelity(u, v) -> float:
    """|<u, v>|^2 after normalizing both vectors (global-phase blind)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return float(
        abs(np.vdot(u, v)) ** 2 / (np.vdot(u, u).real * np.vdot(v, v).real)
    )


def subspace_fidelity(vectors, target) -> float:
    """Largest |<s, target>|^2 over unit s in span(vectors).

    Used for degenerate eigenspaces where the solver's basis choice is
    arbitrary.
    """
    cols = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    q, _ = np.linalg.qr(cols)
    t = np.asarray(target, dtype=complex)
    t = t / np.linalg.norm(t)
    return float(np.linalg.norm(q.T.conj() @ t) ** 2)


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
