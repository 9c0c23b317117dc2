"""CPT maps in operator-sum form: depolarizing channels, tensor products,
and the two memory-channel wrappers (periodic, convex combination).

A channel also carries its transfer matrix, the same map on vectorized
density matrices, which the optimizer uses; `apply` keeps the Kraus sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import CapabilityError, CPViolationError, DimensionMismatchError
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-9
# Product channels are materialized on demand; this caps their total dimension.
MAX_PRODUCT_DIM = 16
WEIGHT_SUM_TOL = 1e-12  # every probability vector: weights, gammas, ensembles


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPT map given by operator-sum terms.

    Built from any sequence of dout x din matrices, which it keeps as one
    read-only (terms, dout, din) complex array `kraus`."""

    kraus: np.ndarray

    def __post_init__(self):
        terms = [np.asarray(k, dtype=np.complex128) for k in self.kraus]
        if not terms:
            raise ValueError("channel needs at least one Kraus term")
        shape = terms[0].shape
        if len(shape) != 2:
            raise ValueError(f"Kraus terms must be matrices, got shape {shape}")
        if any(k.shape != shape for k in terms):
            raise ValueError("all Kraus terms must share one shape")
        kraus = np.stack(terms)
        kraus.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)
        gram = sum(k.conj().T @ k for k in kraus)
        defect = np.max(np.abs(gram - np.eye(self.din)))
        if not defect <= COMPLETENESS_TOL:
            raise ValueError(
                f"Kraus terms are not trace preserving (sum K^dag K defect {defect:.3e})"
            )

    @property
    def din(self) -> int:
        return self.kraus.shape[2]

    @property
    def dout(self) -> int:
        return self.kraus.shape[1]

    @cached_property
    def transfer(self) -> np.ndarray:
        """(dout^2, din^2) matrix S = sum_k K_k (x) conj(K_k), so that
        vec(Phi(rho)) = S vec(rho) for row-major vec."""
        k = self.kraus
        s = np.einsum("kia,kjb->ijab", k, k.conj()).reshape(self.dout**2, self.din**2)
        s.setflags(write=False)
        return s


@dataclass(frozen=True)
class DepolarizingParams:
    """Dimension and mixing parameter of rho -> lam*rho + (1-lam)*I/d."""

    d: int
    lam: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be at least 2, got {self.d}")
        lo = -1.0 / (self.d**2 - 1)
        if not lo <= self.lam <= 1.0:
            raise CPViolationError(self.d, self.lam)


@dataclass(frozen=True, eq=False)
class PeriodicChannel:
    """Cycles through `branches` with a uniformly random starting phase."""

    branches: tuple[KrausChannel, ...]

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise ValueError("periodic channel needs at least one branch")
        d = branches[0].din
        if any(b.din != d or b.dout != d for b in branches):
            raise DimensionMismatchError("all branches must share din = dout = d")
        object.__setattr__(self, "branches", branches)

    @property
    def period(self) -> int:
        return len(self.branches)

    @property
    def d(self) -> int:
        return self.branches[0].din


def check_weights(weights: np.ndarray, count: int, name: str):
    """Raise ValueError unless `weights` holds `count` nonnegative numbers
    summing to 1 within WEIGHT_SUM_TOL (NaN fails both tests)."""
    if weights.ndim != 1 or weights.size != count:
        raise ValueError(f"need {count} {name}s, got {weights.size}")
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= WEIGHT_SUM_TOL):
        raise ValueError(f"{name}s must be a probability vector, got {weights.tolist()}")


@dataclass(frozen=True, eq=False)
class ConvexCombinationChannel:
    """Applies one memoryless branch to the whole codeword, drawn once
    with the given probabilities."""

    branches: tuple[KrausChannel, ...]
    gammas: np.ndarray

    def __post_init__(self):
        branches = tuple(self.branches)
        gammas = np.array(self.gammas, dtype=np.float64)
        gammas.setflags(write=False)
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "gammas", gammas)
        if not branches:
            raise ValueError("convex combination needs at least one branch")
        d = branches[0].din
        if any(b.din != d or b.dout != d for b in branches):
            raise DimensionMismatchError("all branches must share din = dout = d")
        check_weights(gammas, len(branches), "gamma")

    @property
    def d(self) -> int:
        return self.branches[0].din


def _weyl_operators(d: int) -> list[np.ndarray]:
    """The d^2 shift-and-phase unitaries X^a Z^b."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d), 1, axis=0)  # X|j> = |j+1 mod d>
    phase = np.diag(omega ** np.arange(d))  # Z|j> = omega^j |j>
    ops = []
    for a in range(d):
        xa = np.linalg.matrix_power(shift, a)
        for b in range(d):
            ops.append(xa @ np.linalg.matrix_power(phase, b))
    return ops


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel((np.eye(d, dtype=np.complex128),))


def depolarizing(d: int, lam: float) -> KrausChannel:
    """Operator-sum form of rho -> lam*rho + (1-lam)*I/d.

    Uses the discrete Weyl conjugations with weights lam + (1-lam)/d^2 on
    the identity and (1-lam)/d^2 elsewhere; both are nonnegative exactly on
    the completely positive range of lam.
    """
    params = DepolarizingParams(d, lam)
    d, lam = params.d, params.lam
    # at lam = -1/(d^2-1) round-off can leave w_id just below 0 (e.g. d = 6)
    w_id = max(0.0, lam + (1.0 - lam) / d**2)
    w_other = (1.0 - lam) / d**2
    ops = _weyl_operators(d)
    return KrausChannel(tuple(np.sqrt(w_id if idx == 0 else w_other) * op for idx, op in enumerate(ops)))


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Channel output sum_k K rho K^dag."""
    if rho.dim != ch.din:
        raise DimensionMismatchError(
            f"state dim {rho.dim} does not match channel input dim {ch.din}"
        )
    k = ch.kraus
    return DensityMatrix(np.einsum("kij,jl,kml->im", k, rho.mat, k.conj(), optimize=True))


def tensor_channels(channels: Sequence[KrausChannel]) -> KrausChannel:
    """Tensor product channel; Kraus terms are all Kronecker products of
    the factors' terms."""
    channels = list(channels)
    if not channels:
        raise ValueError("need at least one channel")
    combos = itertools.product(*(c.kraus for c in channels))
    return KrausChannel(tuple(reduce(np.kron, combo) for combo in combos))


def _check_product_size(d: int, n: int):
    if n < 1:
        raise ValueError(f"number of uses must be positive, got {n}")
    if n > 2 and d**n > MAX_PRODUCT_DIM:
        raise CapabilityError(
            f"{n}-fold product on dimension {d} exceeds the desk-scale cap "
            f"(need n <= 2 or d^n <= {MAX_PRODUCT_DIM})"
        )


def periodic_branch(ch: PeriodicChannel, i: int, n: int) -> KrausChannel:
    """Product of n consecutive branches starting at index i (cyclic)."""
    if not 0 <= i < ch.period:
        raise IndexError(f"branch index {i} out of range for period {ch.period}")
    _check_product_size(ch.d, n)
    return tensor_channels([ch.branches[(i + k) % ch.period] for k in range(n)])


def apply_periodic(ch: PeriodicChannel, rho_n: DensityMatrix, n: int) -> DensityMatrix:
    """Uniform average over the starting phase of the n-fold branch products."""
    _check_product_size(ch.d, n)
    if rho_n.dim != ch.d**n:
        raise DimensionMismatchError(
            f"state dim {rho_n.dim} does not match {n} uses of dimension {ch.d}"
        )
    out = np.zeros((rho_n.dim, rho_n.dim), dtype=np.complex128)
    for i in range(ch.period):
        out += apply(periodic_branch(ch, i, n), rho_n).mat
    return DensityMatrix(out / ch.period)


def apply_convex(
    ch: ConvexCombinationChannel, rho_n: DensityMatrix, n: int
) -> DensityMatrix:
    """Gamma-weighted average of the n-fold memoryless branch outputs."""
    _check_product_size(ch.d, n)
    if rho_n.dim != ch.d**n:
        raise DimensionMismatchError(
            f"state dim {rho_n.dim} does not match {n} uses of dimension {ch.d}"
        )
    out = np.zeros((rho_n.dim, rho_n.dim), dtype=np.complex128)
    for gamma, branch in zip(ch.gammas, ch.branches):
        product = tensor_channels([branch] * n)
        out += gamma * apply(product, rho_n).mat
    return DensityMatrix(out)


def mix_channels(channels: Sequence[KrausChannel], weights: Sequence[float]) -> KrausChannel:
    """The channel rho -> sum_i w_i Phi_i(rho) as a single Kraus list."""
    channels = list(channels)
    weights = np.asarray(weights, dtype=np.float64)
    check_weights(weights, len(channels), "weight")
    terms = [np.sqrt(w) * k for w, c in zip(weights, channels) for k in c.kraus]
    return KrausChannel(tuple(terms))

