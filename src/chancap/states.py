"""Density matrices, a pure state being the matrix |psi><psi|, plus the
tensor/trace plumbing and spectra as read-only arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .params import check_instance, check_integer, check_positive_integer

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
IDENTITY_SUM_TOL = 1e-9


def frozen_numbers(x, what: str, ragged: str) -> np.ndarray:
    """`x` copied into a new read-only, C-order complex array; ValueError with
    `ragged` for ragged input, "<what> must be numbers" for text, None or any
    other non-number, "<what> must have finite entries" before arithmetic can warn."""
    try:
        arr = np.asarray(x)
    except ValueError:
        raise ValueError(ragged) from None
    if arr.dtype.kind not in "biufc":
        raise ValueError(f"{what} must be numbers, got {x!r}")
    arr = np.array(arr, dtype=np.complex128, order="C")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must have finite entries")
    arr.setflags(write=False)
    return arr


def check_identity_sum(total: np.ndarray, what: str):
    """Raise ValueError unless the square matrix `total` is the identity
    within IDENTITY_SUM_TOL, entry by entry."""
    defect = np.max(np.abs(total - np.eye(total.shape[0])))
    if not defect <= IDENTITY_SUM_TOL:
        raise ValueError(f"{what} must sum to the identity (defect {defect:.3e})")


def check_positive_semidefinite(mats: np.ndarray, what: str) -> np.ndarray:
    """Raise ValueError unless the square matrix, or every matrix of the
    stack, `mats` is Hermitian within HERMITICITY_TOL, entry by entry, with no
    eigenvalue below EIGENVALUE_FLOOR; return the spectra, eigvalsh's ascending ones."""
    herm_defect = np.max(np.abs(mats - mats.conj().swapaxes(-1, -2)))
    if not herm_defect <= HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian (defect {herm_defect:.3e})")
    w = np.linalg.eigvalsh(mats)
    low = min(w[..., 0].flat)  # a numpy reduction would add a microsecond to every state
    if not low >= EIGENVALUE_FLOOR:
        raise ValueError(f"{what} has a negative eigenvalue {low:.3e} below tolerance")
    return w


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive semidefinite operator.

    Copied on construction into a read-only, C-order complex array and
    validated: numbers (text, None and other non-numbers are rejected as
    such), finite, Hermitian to 1e-10, no eigenvalue below -1e-10, and trace
    1 to 1e-10.  The spectrum that check computes is kept, read-only and
    ascending, so no reader of it diagonalises again.
    """

    mat: np.ndarray
    _eigvals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = frozen_numbers(self.mat, "density matrix", "density matrix must be square, got ragged rows")
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
    dim = check_positive_integer("dim", dim)
    k = check_integer("k", k)
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dim {dim}")
    mat = np.zeros((dim, dim))
    mat[k, k] = 1.0
    return DensityMatrix(mat)


def maximally_mixed(dim: int) -> DensityMatrix:
    dim = check_positive_integer("dim", dim)
    return DensityMatrix(np.eye(dim) / dim)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two density matrices."""
    check_instance("first state", a, DensityMatrix)
    check_instance("second state", b, DensityMatrix)
    return DensityMatrix(np.kron(a.mat, b.mat))


def partial_trace(
    rho: DensityMatrix, dims: Sequence[int], keep: Iterable[int]
) -> DensityMatrix:
    """Reduced state of `rho` on the tensor factors listed in `keep`.

    `dims` gives the dimension of each factor; their product must equal the
    dimension of `rho`.  Kept factors appear in their original order.
    """
    check_instance("state", rho, DensityMatrix)
    dims = [check_positive_integer("dims entry", d) for d in dims]
    if math.prod(dims) != rho.dim:
        raise DimensionMismatchError(f"product of dims {dims} is {math.prod(dims)}, expected {rho.dim}")
    keep = sorted({check_integer("keep entry", i) for i in keep})
    n = len(dims)
    if any(i < 0 or i >= n for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    if not keep:
        raise ValueError("must keep at least one factor")

    reshaped = rho.mat.reshape(dims + dims)
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        reshaped = np.trace(reshaped, axis1=idx, axis2=idx + reshaped.ndim // 2)
    d_kept = math.prod(dims[i] for i in keep)
    return DensityMatrix(reshaped.reshape(d_kept, d_kept))


def eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Read-only real spectrum in descending order; round-off negatives in
    [-1e-10, 0) clamp to 0."""
    check_instance("state", rho, DensityMatrix)
    w = rho._eigvals[::-1].copy()
    w[w < 0] = 0.0
    w.setflags(write=False)
    return w
