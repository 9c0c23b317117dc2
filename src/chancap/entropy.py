"""Von Neumann and relative entropy, in bits.

All logarithms are base 2 and 0*log(0) is taken as 0 by continuity.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .params import check_instance
from .states import DensityMatrix

# Eigenvalues of the second argument below this count as "no support" when
# deciding whether the relative entropy is infinite; weight of the first
# argument above ABS_WEIGHT_TOL on such a direction triggers the +inf sentinel.
SUPPORT_TOL = 1e-12
ABS_WEIGHT_TOL = 1e-9


def _entropies(w: np.ndarray) -> np.ndarray:
    """Entropies in bits over the last axis of a stack (..., d) of spectra
    or distributions; zeros and round-off negatives contribute 0."""
    return -(w * np.log2(w, out=np.zeros(w.shape), where=w > 0)).sum(axis=-1)


def shannon_entropy(p: np.ndarray) -> float:
    """Shannon entropy in bits of a nonnegative vector (zeros contribute 0)."""
    return float(_entropies(np.asarray(p, dtype=np.float64).ravel()))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho log2 rho)."""
    check_instance("state", rho, DensityMatrix)
    return float(_entropies(rho._eigvals))


def relative_entropy(a: DensityMatrix, b: DensityMatrix) -> float:
    """S(a||b) = tr(a log2 a) - tr(a log2 b).

    Returns math.inf when `a` has weight above 1e-9 on a direction where `b`
    has eigenvalue below 1e-12 (support mismatch).
    """
    check_instance("first state", a, DensityMatrix)
    check_instance("second state", b, DensityMatrix)
    return float(_relative_entropies((a,), b.mat)[0])


def _relative_entropies(states: Sequence[DensityMatrix], b: np.ndarray) -> np.ndarray:
    """S(a||b) for each state a, as `relative_entropy` gives it, to the
    Hermitian positive semidefinite matrix `b`, which is diagonalised once
    for all of them; each row's bits do not depend on the other states."""
    for a in states:
        if a.dim != len(b):
            raise DimensionMismatchError(f"dims differ: {a.dim} vs {len(b)}")
    wb, vb = np.linalg.eigh(b)
    # weight of each a along each eigenvector of b: the diagonal of vb^H a vb,
    # one matrix product per state
    rotated = vb.conj().T @ np.array([a.mat for a in states]) @ vb
    weights = np.diagonal(rotated, axis1=-2, axis2=-1).real
    unsupported = wb < SUPPORT_TOL
    tr_a_log_a = -_entropies(np.array([a._eigvals for a in states]))
    tr_a_log_b = (weights[:, ~unsupported] * np.log2(wb[~unsupported])).sum(axis=-1)
    mismatch = (weights[:, unsupported] > ABS_WEIGHT_TOL).any(axis=-1)
    return np.where(mismatch, math.inf, tr_a_log_a - tr_a_log_b)
