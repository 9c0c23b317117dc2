"""Ensembles, the Holevo quantity in its two equivalent forms, and POVM
mutual information for testing the Holevo bound, of any `KrausChannel`:
n uses of a channel with memory too (`channels.periodic_uses`, `convex_uses`)."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import channels
from .channels import ConvexCombinationChannel, KrausChannel, PeriodicChannel
from .entropy import _entropies, _relative_entropies, shannon_entropy, von_neumann_entropy
from .errors import DimensionMismatchError
from .params import check_weights
from .states import DensityMatrix, basis_state, check_identity_sum, check_positive_semidefinite


@dataclass(frozen=True, eq=False)
class Ensemble:
    """States with probabilities {p_j, rho_j}."""

    probs: np.ndarray
    states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        probs.setflags(write=False)
        states = tuple(self.states)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)
        if not states:
            raise ValueError("ensemble needs at least one state")
        check_weights(probs, len(states), "prob")
        if any(s.dim != states[0].dim for s in states):
            raise DimensionMismatchError("all ensemble states must share one dimension")

    @property
    def dim(self) -> int:
        return self.states[0].dim


@dataclass(frozen=True, eq=False)
class Povm:
    """Hermitian positive operators summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = tuple(np.array(e, dtype=np.complex128) for e in self.elements)
        for e in elems:
            e.setflags(write=False)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValueError("POVM needs at least one element")
        shape = elems[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(e.shape != shape for e in elems):
            raise ValueError("POVM elements must be square matrices of equal dimension")
        check_identity_sum(sum(elems), "POVM elements")
        for e in elems:
            check_positive_semidefinite(e, "POVM element")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


def _outputs(ch: KrausChannel, ens: Ensemble) -> list[DensityMatrix]:
    """The channel outputs of the ensemble's states, in order, once the
    ensemble is checked to fit the channel's input."""
    if ens.dim != ch.din:
        raise DimensionMismatchError(
            f"ensemble dim {ens.dim} does not match channel input dim {ch.din}"
        )
    return [channels.apply(ch, s) for s in ens.states]


def chi(ch: KrausChannel, ens: Ensemble) -> float:
    """Holevo quantity S(sum_j p_j out_j) - sum_j p_j S(out_j) in bits."""
    outputs = _outputs(ch, ens)
    # a mixture of checked outputs with checked weights, so not checked again
    avg = sum(p * o.mat for p, o in zip(ens.probs, outputs))
    member = sum(p * von_neumann_entropy(o) for p, o in zip(ens.probs, outputs))
    return float(_entropies(np.linalg.eigvalsh(avg)) - member)


def chi_via_relative_entropy(ch: KrausChannel, ens: Ensemble) -> float:
    """Holevo quantity as the average relative entropy of the channel outputs
    with respect to the average output.

    Agrees with `chi` to 1e-9 on every valid input; zero-probability members
    are skipped (they contribute nothing and may lie outside the average's
    support).
    """
    outputs = _outputs(ch, ens)
    # a mixture of checked outputs with checked weights, so not checked again
    avg = sum(p * o.mat for p, o in zip(ens.probs, outputs))
    live = ens.probs > 0
    members = [o for o, keep in zip(outputs, live) if keep]
    return float((ens.probs[live] * _relative_entropies(members, avg)).sum())


def mutual_information(ch: KrausChannel, ens: Ensemble, m: Povm) -> float:
    """Classical mutual information of the input letter and the measurement
    outcome, P(k|j) = tr(Phi(rho_j) E_k)."""
    if m.dim != ch.dout:
        raise DimensionMismatchError(
            f"POVM dim {m.dim} does not match channel output dim {ch.dout}"
        )
    outputs = np.array([o.mat for o in _outputs(ch, ens)])
    # tr(out_j E_k) for every pair in one contraction
    traces = np.einsum("jil,kli->jk", outputs, np.array(m.elements))
    joint = ens.probs[:, None] * np.maximum(traces.real, 0.0)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    return shannon_entropy(px) + shannon_entropy(py) - shannon_entropy(joint)


def chi_periodic_average(ch: PeriodicChannel, ens: Ensemble) -> float:
    """Arithmetic mean over the period of the per-branch Holevo quantities."""
    values = [chi(branch, ens) for branch in ch.branches]
    return float(np.mean(values))


def chi_branch_min(ch: ConvexCombinationChannel, ens: Ensemble) -> float:
    """Minimum over the branches of the per-branch Holevo quantities."""
    values = [chi(branch, ens) for branch in ch.branches]
    return float(np.min(values))


def uniform_orthonormal_ensemble(d: int) -> Ensemble:
    """The computational basis with uniform probabilities."""
    return Ensemble(np.full(d, 1.0 / d), tuple(basis_state(d, k) for k in range(d)))
