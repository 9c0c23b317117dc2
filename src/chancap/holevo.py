"""Ensembles, the Holevo quantity in its two equivalent forms, and POVM
mutual information for testing the Holevo bound, of any `KrausChannel`:
n uses of a channel with memory too (`channels.periodic_uses`, `convex_uses`).
A POVM keeps its elements as one read-only (k, d, d) stack, which
`mutual_information` contracts as it is.  `random_povm` draws a
non-projective POVM from Wishart matrices."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import channels
from .channels import ConvexCombinationChannel, KrausChannel, PeriodicChannel
from .entropy import _entropies, _relative_entropies, shannon_entropy, von_neumann_entropy
from .errors import DimensionMismatchError
from .params import check_instance, check_items, check_positive_integer, check_weights
from .states import DensityMatrix, basis_state, check_identity_sum, check_positive_semidefinite, frozen_numbers


@dataclass(frozen=True, eq=False)
class Ensemble:
    """States with probabilities {p_j, rho_j}."""

    probs: np.ndarray
    states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        states = check_items("ensemble states", self.states, DensityMatrix, "ensemble needs at least one state")
        probs = np.array(check_weights(self.probs, len(states), "prob"))
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)
        if any(s.dim != states[0].dim for s in states):
            raise DimensionMismatchError("all ensemble states must share one dimension")

    @property
    def dim(self) -> int:
        return self.states[0].dim


@dataclass(frozen=True, eq=False)
class Povm:
    """Hermitian positive operators summing to the identity.

    Built from any sequence of d x d matrices, which it copies once, in C
    order, into one read-only (k, d, d) complex array `elements`; the
    caller's array is never kept or frozen.  Text, None and other
    non-numbers are rejected as such."""

    elements: np.ndarray

    def __post_init__(self):
        square = "POVM elements must be square matrices of equal dimension"
        elems = frozen_numbers(self.elements, "POVM elements", square)
        object.__setattr__(self, "elements", elems)
        if elems.shape[:1] == (0,):  # a scalar has no first axis
            raise ValueError("POVM needs at least one element")
        if elems.ndim != 3 or elems.shape[1] != elems.shape[2]:
            raise ValueError(square)
        if not elems.size:
            raise ValueError(f"POVM elements must have nonzero dimensions, got shape {elems.shape[1:]}")
        check_identity_sum(elems.sum(axis=0), "POVM elements")
        check_positive_semidefinite(elems, "POVM element")

    @property
    def dim(self) -> int:
        return self.elements.shape[1]


def _wishart(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Wishart matrix G G^dag of a dim x rank complex Gaussian G, real parts drawn first."""
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return g @ g.conj().T


def random_povm(dim: int, rng: np.random.Generator) -> Povm:
    """Random POVM from dim + 1 Wishart matrices, so the measurement is
    non-projective, normalized by the inverse square root of their sum."""
    dim = check_positive_integer("dim", dim)
    raw = [_wishart(dim, dim, rng) for _ in range(dim + 1)]
    w, v = np.linalg.eigh(sum(raw))
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Povm(tuple(inv_sqrt @ r @ inv_sqrt for r in raw))


def _outputs(ch: KrausChannel, ens: Ensemble) -> list[DensityMatrix]:
    """The channel outputs of the ensemble's states, in order, once the
    ensemble is checked to fit the channel's input."""
    check_instance("channel", ch, KrausChannel)
    check_instance("ensemble", ens, Ensemble)
    if ens.dim != ch.din:
        raise DimensionMismatchError(
            f"ensemble dim {ens.dim} does not match channel input dim {ch.din}"
        )
    return [channels.apply(ch, s) for s in ens.states]


def _mixture(ch: KrausChannel, ens: Ensemble) -> tuple[list[DensityMatrix], np.ndarray]:
    """`_outputs` and their average, unchecked: a mixture of checked outputs with checked weights."""
    outputs = _outputs(ch, ens)
    return outputs, sum(p * o.mat for p, o in zip(ens.probs, outputs))


def chi(ch: KrausChannel, ens: Ensemble) -> float:
    """Holevo quantity S(sum_j p_j out_j) - sum_j p_j S(out_j) in bits."""
    outputs, avg = _mixture(ch, ens)
    member = sum(p * von_neumann_entropy(o) for p, o in zip(ens.probs, outputs))
    return float(_entropies(np.linalg.eigvalsh(avg)) - member)


def chi_via_relative_entropy(ch: KrausChannel, ens: Ensemble) -> float:
    """Holevo quantity as the average relative entropy of the channel outputs
    with respect to the average output.

    Agrees with `chi` to 1e-9 on every valid input; zero-probability members
    are skipped (they contribute nothing and may lie outside the average's
    support).
    """
    outputs, avg = _mixture(ch, ens)
    live = ens.probs > 0
    members = [o for o, keep in zip(outputs, live) if keep]
    return float((ens.probs[live] * _relative_entropies(members, avg)).sum())


def mutual_information(ch: KrausChannel, ens: Ensemble, m: Povm) -> float:
    """Classical mutual information of the input letter and the measurement
    outcome, P(k|j) = tr(Phi(rho_j) E_k)."""
    check_instance("POVM", m, Povm)
    outputs = np.array([o.mat for o in _outputs(ch, ens)])
    if m.dim != ch.dout:
        raise DimensionMismatchError(
            f"POVM dim {m.dim} does not match channel output dim {ch.dout}"
        )
    # tr(out_j E_k) for every pair in one contraction
    traces = np.einsum("jil,kli->jk", outputs, m.elements)
    joint = ens.probs[:, None] * np.maximum(traces.real, 0.0)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    return shannon_entropy(px) + shannon_entropy(py) - shannon_entropy(joint)


def chi_periodic_average(ch: PeriodicChannel, ens: Ensemble) -> float:
    """Arithmetic mean over the period of the per-branch Holevo quantities."""
    check_instance("channel", ch, PeriodicChannel)
    return float(np.mean([chi(branch, ens) for branch in ch.branches]))


def chi_branch_min(ch: ConvexCombinationChannel, ens: Ensemble) -> float:
    """Minimum over the branches of the per-branch Holevo quantities."""
    check_instance("channel", ch, ConvexCombinationChannel)
    return float(np.min([chi(branch, ens) for branch in ch.branches]))


def uniform_orthonormal_ensemble(d: int) -> Ensemble:
    """The computational basis with uniform probabilities."""
    return Ensemble(np.full(d, 1.0 / d), tuple(basis_state(d, k) for k in range(d)))
