"""Density matrices, a pure state being the matrix |psi><psi|, plus the
tensor/trace plumbing and spectra as read-only arrays."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .params import check_integer, check_positive_integer

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
IDENTITY_SUM_TOL = 1e-9


def check_identity_sum(total: np.ndarray, what: str):
    """Raise ValueError unless the square matrix `total` is the identity
    within IDENTITY_SUM_TOL, entry by entry."""
    defect = np.max(np.abs(total - np.eye(total.shape[0])))
    if not defect <= IDENTITY_SUM_TOL:
        raise ValueError(f"{what} must sum to the identity (defect {defect:.3e})")


def check_positive_semidefinite(mat: np.ndarray, what: str) -> np.ndarray:
    """Raise ValueError unless the square matrix `mat` is Hermitian within
    HERMITICITY_TOL, entry by entry, with no eigenvalue below EIGENVALUE_FLOOR;
    return its spectrum, eigvalsh's ascending one."""
    herm_defect = np.max(np.abs(mat - mat.conj().T))
    if not herm_defect <= HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian (defect {herm_defect:.3e})")
    w = np.linalg.eigvalsh(mat)
    if not w[0] >= EIGENVALUE_FLOOR:
        raise ValueError(f"{what} has a negative eigenvalue {w[0]:.3e} below tolerance")
    return w


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive semidefinite operator.

    Validated on construction: Hermitian to 1e-10, no eigenvalue below
    -1e-10, and trace 1 to 1e-10.  The spectrum that check computes is kept,
    read-only and ascending, so no reader of it diagonalises again.
    """

    mat: np.ndarray
    _eigvals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.array(self.mat, dtype=np.complex128, order="C")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        w = check_positive_semidefinite(mat, "density matrix")
        w.setflags(write=False)
        object.__setattr__(self, "_eigvals", w)
        tr = mat.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def basis_state(dim: int, k: int) -> DensityMatrix:
    """Computational basis state |k><k| on a dim-dimensional space."""
    check_positive_integer("dim", dim)
    check_integer("k", k)
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dim {dim}")
    mat = np.zeros((dim, dim))
    mat[k, k] = 1.0
    return DensityMatrix(mat)


def maximally_mixed(dim: int) -> DensityMatrix:
    check_positive_integer("dim", dim)
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
    for d in dims:
        check_positive_integer("dims entry", d)
    if int(np.prod(dims)) != rho.dim:
        raise DimensionMismatchError(
            f"product of dims {dims} is {int(np.prod(dims))}, expected {rho.dim}"
        )
    keep = list(keep)
    for i in keep:
        check_integer("keep entry", i)
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


def eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Read-only real spectrum in descending order; round-off negatives in
    [-1e-10, 0) clamp to 0."""
    w = rho._eigvals[::-1].copy()
    w[w < 0] = 0.0
    w.setflags(write=False)
    return w
