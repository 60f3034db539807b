"""Quantities read off effective states.

Every state the lab reports is a unit vector on the block basis, a pure
state.  `mixture_purity` gives the purity of an equal-weight ensemble of
such vectors from their Gram matrix; `disorder-sweep` and `kuramoto` report
it.  `concurrence` is the entanglement of one two-bit state, read off its
four coefficients.
"""

from __future__ import annotations

import numpy as np

from .errors import QllabError


def mixture_purity(vectors) -> float:
    """trace(rho^2) of the equal-weight mixture of the columns of `vectors`.

    For unit columns w_1..w_R, rho = (1/R) sum_r w_r w_r^* has
    trace(rho^2) = (1/R^2) sum_{r,s} |<w_r, w_s>|^2, read off the R x R
    Gram matrix without forming the dim x dim rho.
    """
    w = np.asarray(vectors)
    gram = w.conj().T @ w
    return float((np.abs(gram) ** 2).sum()) / w.shape[1] ** 2


def concurrence(c) -> float:
    """Concurrence 2 |c0 c3 - c1 c2| of a pure two-bit state.

    c is the state's four coefficients in basis order.  On a pure state
    Wootters' (1998) measure reduces to this, which is 2 s1 s2 over the
    singular values of the 2 x 2 coefficient matrix: 0 on a product state,
    1 on a Bell state.  Raises unless c is a unit vector of shape (4,).
    """
    c = np.asarray(c, dtype=complex)
    norm = np.linalg.norm(c)
    if c.shape != (4,) or not abs(norm - 1.0) <= 1e-8:
        raise QllabError(f"concurrence needs a unit vector of shape (4,), got shape {c.shape}, norm {norm:.12g}")
    return float(2.0 * abs(c[0] * c[3] - c[1] * c[2]))
