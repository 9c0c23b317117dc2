"""Von Neumann and relative entropy, in bits.

All logarithms are base 2 and 0*log(0) is taken as 0 by continuity.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError
from .states import DensityMatrix

# Eigenvalues of the second argument below this count as "no support" when
# deciding whether the relative entropy is infinite; weight of the first
# argument above ABS_WEIGHT_TOL on such a direction triggers the +inf sentinel.
SUPPORT_TOL = 1e-12
ABS_WEIGHT_TOL = 1e-9


def shannon_entropy(p: np.ndarray) -> float:
    """Shannon entropy in bits of a nonnegative vector (zeros contribute 0)."""
    p = np.asarray(p, dtype=np.float64).ravel()
    pos = p[p > 0]
    return float(-np.sum(pos * np.log2(pos)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho)."""
    return shannon_entropy(rho._eigvals)


def relative_entropy(a: DensityMatrix, b: DensityMatrix) -> float:
    """S(a||b) = tr(a log2 a) - tr(a log2 b).

    Returns math.inf when `a` has weight above 1e-9 on a direction where `b`
    has eigenvalue below 1e-12 (support mismatch).
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    wb, vb = np.linalg.eigh(b.mat)
    # weight of a along each eigenvector of b
    weights = np.real(np.einsum("ik,ij,jk->k", vb.conj(), a.mat, vb))
    unsupported = wb < SUPPORT_TOL
    if np.any(weights[unsupported] > ABS_WEIGHT_TOL):
        return math.inf
    tr_a_log_a = -shannon_entropy(a._eigvals)
    tr_a_log_b = float(np.sum(weights[~unsupported] * np.log2(wb[~unsupported])))
    return tr_a_log_a - tr_a_log_b
