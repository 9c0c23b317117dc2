"""Random states and unitaries: the optimizer's start states, and inputs
for property tests and benchmarks."""

from __future__ import annotations

import numpy as np

from .states import DensityMatrix


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_vectors(dim: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m Haar-random state vectors as the rows of an (m, dim) array:
    normalized complex Gaussians, the real parts drawn before the imaginary."""
    psis = rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim))
    return psis / np.linalg.norm(psis, axis=1, keepdims=True)


def random_pure_state(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Haar-random pure state |psi><psi|."""
    (psi,) = random_unit_vectors(dim, 1, rng)
    return DensityMatrix(np.outer(psi, psi.conj()))


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Normalized Wishart state G G^dag / tr, full rank by default."""
    if rank is None:
        rank = dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho))
