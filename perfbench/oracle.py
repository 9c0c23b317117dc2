"""Reference values for the benchmark's correctness checks.

Nothing here calls chancap.  Closed forms come from the depolarizing
output spectrum, channel outputs from the depolarizing action written out
directly (not from Kraus terms), and entropies from numpy eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np


def s_min(d: int, lam: float) -> float:
    """Output entropy of a pure input: one eigenvalue lam + (1-lam)/d and
    d-1 eigenvalues (1-lam)/d."""
    spectrum = [lam + (1.0 - lam) / d] + [(1.0 - lam) / d] * (d - 1)
    return -sum(x * math.log2(x) for x in spectrum if x > 0)


def chi_star(d: int, lam: float) -> float:
    return math.log2(d) - s_min(d, lam)


def periodic_capacity(d: int, lambdas) -> float:
    return math.log2(d) - sum(s_min(d, lam) for lam in lambdas) / len(lambdas)


def convex_capacity(d: int, lambdas) -> float:
    return min(chi_star(d, lam) for lam in lambdas)


def depolarize(rho: np.ndarray, d: int, lambdas) -> np.ndarray:
    """Output of one depolarizing channel (one lambda) or of the product of
    two (two lambdas, each acting on a d-dimensional factor)."""
    if len(lambdas) == 1:
        (lam,) = lambdas
        return lam * rho + (1.0 - lam) * np.trace(rho) * np.eye(d) / d
    la, lb = lambdas
    r = rho.reshape(d, d, d, d)
    rho_a = np.einsum("ijkj->ik", r)
    rho_b = np.einsum("ijil->jl", r)
    mixed = np.eye(d) / d
    return (
        la * lb * rho
        + la * (1.0 - lb) * np.kron(rho_a, mixed)
        + (1.0 - la) * lb * np.kron(mixed, rho_b)
        + (1.0 - la) * (1.0 - lb) * np.kron(mixed, mixed)
    )


def _shannon(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def entropy(mat: np.ndarray) -> float:
    return _shannon(np.linalg.eigvalsh(mat))


def holevo(probs, outputs) -> float:
    avg = sum(p * o for p, o in zip(probs, outputs))
    return float(entropy(avg) - sum(p * entropy(o) for p, o in zip(probs, outputs)))


def mutual_information(probs, outputs, povm) -> float:
    joint = np.array(
        [[p * max(float(np.real(np.trace(o @ e))), 0.0) for e in povm] for p, o in zip(probs, outputs)]
    )
    return _shannon(joint.sum(axis=1)) + _shannon(joint.sum(axis=0)) - _shannon(joint.ravel())
