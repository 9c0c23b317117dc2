"""Random unitaries and states for property tests.  Random mixed states come
from the Wishart draw that `random_povm` uses, `holevo._wishart`."""

import numpy as np

from chancap import holevo
from chancap.optimize import random_unit_vectors
from chancap.params import check_positive_integer
from chancap.states import DensityMatrix


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    check_positive_integer("dim", dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure_state(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Haar-random pure state |psi><psi|."""
    (psi,) = random_unit_vectors(dim, 1, rng)
    return DensityMatrix(np.outer(psi, psi.conj()))


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Normalized Wishart state G G^dag / tr, full rank by default."""
    check_positive_integer("dim", dim)
    if rank is None:
        rank = dim
    check_positive_integer("rank", rank)
    rho = holevo._wishart(dim, rank, rng)
    return DensityMatrix(rho / np.trace(rho))
