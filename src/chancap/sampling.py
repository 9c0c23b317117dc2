"""Random states, unitaries and measurements: the optimizer's start states,
and inputs for property tests and benchmarks.  Random positive matrices all
come from one Wishart draw, `wishart`."""

from __future__ import annotations

import numpy as np

from .holevo import Povm
from .params import check_positive_integer
from .states import DensityMatrix


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    check_positive_integer("dim", dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_vectors(dim: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m Haar-random state vectors as the rows of an (m, dim) array:
    normalized complex Gaussians, the real parts drawn before the imaginary."""
    check_positive_integer("dim", dim)
    check_positive_integer("m", m)
    psis = rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim))
    return psis / np.linalg.norm(psis, axis=1, keepdims=True)


def random_pure_state(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Haar-random pure state |psi><psi|."""
    (psi,) = random_unit_vectors(dim, 1, rng)
    return DensityMatrix(np.outer(psi, psi.conj()))


def wishart(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Wishart matrix G G^dag of a dim x rank complex Gaussian G, the real
    parts drawn before the imaginary."""
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return g @ g.conj().T


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Normalized Wishart state G G^dag / tr, full rank by default."""
    check_positive_integer("dim", dim)
    if rank is None:
        rank = dim
    check_positive_integer("rank", rank)
    rho = wishart(dim, rank, rng)
    return DensityMatrix(rho / np.trace(rho))


def random_povm(dim: int, rng: np.random.Generator) -> Povm:
    """Random POVM from dim + 1 Wishart matrices, so the measurement is
    non-projective, normalized by the inverse square root of their sum."""
    check_positive_integer("dim", dim)
    raw = [wishart(dim, dim, rng) for _ in range(dim + 1)]
    w, v = np.linalg.eigh(sum(raw))
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Povm(tuple(inv_sqrt @ r @ inv_sqrt for r in raw))
