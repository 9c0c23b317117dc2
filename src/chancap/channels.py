"""CPT maps in operator-sum form: depolarizing channels, tensor products,
mixtures, and the periodic and convex-combination channels with memory,
whose n uses `periodic_uses` and `convex_uses` build as one mixture of
product channels. Every channel is a `KrausChannel`, built and checked by its
one constructor, which copies each stack once, in C order, and freezes it.

A channel also carries its transfer matrix, the same map on vectorized
density matrices, which the optimizer uses; `apply` keeps the Kraus sum. It
contracts each term with its conjugate first, then with rho, for every
channel: numpy's greedy order wherever there are d^2 or more terms on input
dimension d, as in every depolarizing channel, product and mixture built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import CapabilityError, DimensionMismatchError
from .params import (check_depolarizing, check_gammas, check_instance, check_integer, check_items,
                     check_positive_integer, check_weights)
from .states import DensityMatrix, check_identity_sum, frozen_numbers

# Product channels are materialized on demand; this caps their total input
# dimension, and the input dimension of every search, as `check_product_size`
# checks before any Kronecker product or transfer matrix is formed.
MAX_PRODUCT_DIM = 16

# `apply`'s contraction order: each Kraus term with its conjugate, then with rho
_KRAUS_ORDER = ("einsum_path", (0, 2), (0, 1))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPT map given by operator-sum terms.

    Built from any sequence of dout x din matrices, which it copies once,
    in C order, into one read-only (terms, dout, din) complex array `kraus`;
    the caller's array is never kept or frozen.  Text, None and other
    non-numbers are rejected as such."""

    kraus: np.ndarray

    def __post_init__(self):
        kraus = frozen_numbers(self.kraus, "Kraus terms", "all Kraus terms must share one shape")
        if kraus.shape[:1] == (0,):  # a scalar has no first axis
            raise ValueError("channel needs at least one Kraus term")
        if kraus.ndim != 3:
            raise ValueError(f"Kraus terms must be matrices, got shape {kraus.shape[1:]}")
        if not kraus.size:
            raise ValueError(f"Kraus terms must have nonzero dimensions, got shape {kraus.shape[1:]}")
        object.__setattr__(self, "kraus", kraus)
        # sum_k K_k^dag K_k as one product of the terms stacked row-wise
        rows = kraus.reshape(-1, kraus.shape[2])
        check_identity_sum(rows.conj().T @ rows, "K^dag K of trace preserving Kraus terms")

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


def _check_branches(branches: Sequence[KrausChannel], empty_message: str) -> tuple[KrausChannel, ...]:
    """The branches of a memory channel as a tuple: at least one, all with one din = dout."""
    branches = check_items("branches", branches, KrausChannel, empty_message)
    d = branches[0].din
    if any(b.din != d or b.dout != d for b in branches):
        raise DimensionMismatchError("all branches must share din = dout = d")
    return branches


@dataclass(frozen=True, eq=False)
class PeriodicChannel:
    """Cycles through `branches` with a uniformly random starting phase."""

    branches: tuple[KrausChannel, ...]

    def __post_init__(self):
        branches = _check_branches(self.branches, "periodic channel needs at least one branch")
        object.__setattr__(self, "branches", branches)

    @property
    def period(self) -> int:
        return len(self.branches)

    @property
    def d(self) -> int:
        return self.branches[0].din


@dataclass(frozen=True, eq=False)
class ConvexCombinationChannel:
    """Applies one memoryless branch to the whole codeword, drawn once
    with the given probabilities."""

    branches: tuple[KrausChannel, ...]
    gammas: np.ndarray

    def __post_init__(self):
        branches = _check_branches(self.branches, "convex combination needs at least one branch")
        gammas = np.array(check_gammas(self.gammas, len(branches)))
        gammas.setflags(write=False)
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "gammas", gammas)


def _weyl_operators(d: int) -> np.ndarray:
    """The (d^2, d, d) stack of shift-and-phase unitaries X^a Z^b, term
    a*d + b, from X^a Z^b|k> = omega^(b k)|k + a mod d> with omega = e^(2 pi i/d)."""
    a, b, k = np.ogrid[:d, :d, :d]
    ops = np.zeros((d, d, d, d), dtype=np.complex128)
    ops[a, b, (k + a) % d, k] = np.exp(2j * np.pi / d) ** (b * k)
    return ops.reshape(d * d, d, d)


def identity_channel(d: int) -> KrausChannel:
    d = check_positive_integer("d", d)
    return KrausChannel(np.eye(d, dtype=np.complex128)[None])


def depolarizing(d: int, lam: float) -> KrausChannel:
    """Operator-sum form of rho -> lam*rho + (1-lam)*I/d.

    Its Kraus terms are the one stack of d^2 Weyl operators X^a Z^b,
    X^a Z^b|k> = omega^(b k)|k + a mod d>, scaled by the square roots of the
    weights lam + (1-lam)/d^2 on the identity and (1-lam)/d^2 elsewhere; both
    are nonnegative exactly on the completely positive range of lam.  Its
    d^4 entries are built only for a d that `check_product_size` allows.
    """
    lam = check_depolarizing(d, lam)
    d = check_product_size(d)
    # at lam = -1/(d^2-1) round-off can leave the identity weight just below 0 (e.g. d = 6)
    weights = np.full(d * d, (1.0 - lam) / d**2)
    weights[0] = max(0.0, lam + (1.0 - lam) / d**2)
    return KrausChannel(np.sqrt(weights)[:, None, None] * _weyl_operators(d))


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Channel output sum_k K rho K^dag, contracted in `_KRAUS_ORDER`.  Greedy
    `einsum(optimize=True)` picks it too, bit for bit, at d^2 or more terms on
    input dimension d; with fewer (identity, amplitude damping) greedy contracts
    rho first, about 1e-16 away.  No output depends on numpy's cost model."""
    check_instance("channel", ch, KrausChannel)
    check_instance("state", rho, DensityMatrix)
    if rho.dim != ch.din:
        raise DimensionMismatchError(
            f"state dim {rho.dim} does not match channel input dim {ch.din}"
        )
    k = ch.kraus
    return DensityMatrix(np.einsum("kij,jl,kml->im", k, rho.mat, k.conj(), optimize=_KRAUS_ORDER))


def _kron_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every Kronecker product kron(a[i], b[j]) of two stacks of matrices,
    i varying slowest, from one broadcast product of the two stacks."""
    (n, p, r), (n2, q, s) = a.shape, b.shape
    return (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(n * n2, p * q, r * s)


def tensor_channels(channels: Sequence[KrausChannel]) -> KrausChannel:
    """Tensor product channel; Kraus terms are all Kronecker products of
    the factors' terms, the first factor's term varying slowest."""
    channels = check_items("channels", channels, KrausChannel, "need at least one channel")
    check_product_size(math.prod(c.din for c in channels))
    return KrausChannel(reduce(_kron_terms, (c.kraus for c in channels)))


def check_product_size(d: int, n: int = 1) -> int:
    """The input dimension d^n of n uses of dimension d, as a Python int;
    refuse it unless d and n are integers, n is positive and d^n is at most
    MAX_PRODUCT_DIM: the one size rule, for products and searches alike."""
    n = check_integer("n", n)
    if n < 1:
        raise ValueError(f"number of uses must be positive, got {n}")
    dim = check_integer("d", d) ** n
    if dim > MAX_PRODUCT_DIM:
        raise CapabilityError(f"input dimension {dim} exceeds the desk-scale cap {MAX_PRODUCT_DIM}")
    return dim


def periodic_branch(ch: PeriodicChannel, i: int, n: int) -> KrausChannel:
    """Product of n consecutive branches starting at index i (cyclic)."""
    check_instance("channel", ch, PeriodicChannel)
    i = check_integer("i", i)
    if not 0 <= i < ch.period:
        raise IndexError(f"branch index {i} out of range for period {ch.period}")
    check_product_size(ch.d, n)
    return tensor_channels([ch.branches[(i + k) % ch.period] for k in range(n)])


def mix_channels(channels: Sequence[KrausChannel], weights: Sequence[float]) -> KrausChannel:
    """The channel rho -> sum_i w_i Phi_i(rho): the channels' Kraus stacks,
    each scaled by sqrt(w_i), concatenated in order."""
    channels = check_items("channels", channels, KrausChannel, "need at least one channel")
    weights = check_weights(weights, len(channels), "weight")
    shapes = sorted({(c.din, c.dout) for c in channels})
    if len(shapes) > 1:
        raise DimensionMismatchError(f"channels to mix must share one (din, dout), got {shapes}")
    return KrausChannel(np.concatenate([np.sqrt(w) * c.kraus for w, c in zip(weights, channels)]))


def periodic_uses(ch: PeriodicChannel, n: int) -> KrausChannel:
    """n uses of the periodic channel: the uniform average over the starting
    phase i of the branch products phi_i (x) phi_{i+1} (x) ... (x) phi_{i+n-1}."""
    check_instance("channel", ch, PeriodicChannel)
    products = [periodic_branch(ch, i, n) for i in range(ch.period)]
    return mix_channels(products, [1.0 / ch.period] * ch.period)


def convex_uses(ch: ConvexCombinationChannel, n: int) -> KrausChannel:
    """n uses of the convex combination: sum_i gamma_i phi_i^(x)n."""
    check_instance("channel", ch, ConvexCombinationChannel)
    check_product_size(ch.branches[0].din, n)
    return mix_channels([tensor_channels([b] * n) for b in ch.branches], ch.gammas)
