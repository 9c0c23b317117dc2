"""Density matrices, pure states and spectra, plus the tensor/trace plumbing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
NORM_TOL = 1e-12


def _as_complex(a) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive semidefinite operator.

    Validated on construction: Hermitian to 1e-10, trace 1 to 1e-10, and no
    eigenvalue below -1e-10.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = _as_complex(self.mat)
        object.__setattr__(self, "mat", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        herm_defect = np.max(np.abs(mat - mat.conj().T))
        if not herm_defect <= HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        tr = mat.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")
        w = np.linalg.eigvalsh(mat)
        if not w[0] >= EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {w[0]:.3e} below tolerance")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError(f"amplitudes must be a nonempty vector, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector norm must be 1, got {norm}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues in descending order."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if np.isnan(vals).any() or np.any(np.diff(vals) > 0):
            raise ValueError("spectrum values must be numbers in descending order")


def basis_state(dim: int, k: int) -> PureState:
    """Computational basis vector |k> on a dim-dimensional space."""
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[k] = 1.0
    return PureState(amps)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim) / dim)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two density matrices."""
    return DensityMatrix(np.kron(a.mat, b.mat))


def partial_trace(
    rho: DensityMatrix, dims: Sequence[int], keep: Iterable[int]
) -> DensityMatrix:
    """Reduced state of `rho` on the tensor factors listed in `keep`.

    `dims` gives the dimension of each factor; their product must equal the
    dimension of `rho`.  Kept factors appear in their original order.
    """
    dims = list(dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != rho.dim:
        raise DimensionMismatchError(
            f"product of dims {dims} is {int(np.prod(dims))}, expected {rho.dim}"
        )
    keep = sorted(set(keep))
    n = len(dims)
    if any(i < 0 or i >= n for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    if not keep:
        raise ValueError("must keep at least one factor")

    reshaped = rho.mat.reshape(dims + dims)
    work_dims = list(dims)
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        reshaped = np.trace(reshaped, axis1=idx, axis2=idx + len(work_dims))
        del work_dims[idx]
    d_kept = int(np.prod([dims[i] for i in keep]))
    return DensityMatrix(reshaped.reshape(d_kept, d_kept))


def eigenvalues(rho: DensityMatrix) -> Spectrum:
    """Descending real spectrum; round-off negatives in [-1e-10, 0) clamp to 0."""
    w = np.linalg.eigvalsh(rho.mat)[::-1].copy()
    w[w < 0] = 0.0
    return Spectrum(w)
