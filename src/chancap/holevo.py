"""Ensembles, the Holevo quantity in its two equivalent forms, and POVM
mutual information for testing the Holevo bound."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import channels
from .channels import ConvexCombinationChannel, KrausChannel, PeriodicChannel
from .entropy import shannon_entropy, von_neumann_entropy, relative_entropy
from .errors import DimensionMismatchError
from .states import DensityMatrix

POVM_COMPLETENESS_TOL = 1e-9
POVM_EIGENVALUE_FLOOR = -1e-10


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
        channels.check_weights(probs, len(states), "prob")
        if any(s.dim != states[0].dim for s in states):
            raise DimensionMismatchError("all ensemble states must share one dimension")

    @property
    def dim(self) -> int:
        return self.states[0].dim


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operators summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = tuple(np.array(e, dtype=np.complex128) for e in self.elements)
        for e in elems:
            e.setflags(write=False)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValueError("POVM needs at least one element")
        d = elems[0].shape[0]
        if any(e.shape != (d, d) for e in elems):
            raise ValueError("POVM elements must be square matrices of equal dimension")
        defect = np.max(np.abs(sum(elems) - np.eye(d)))
        if not defect <= POVM_COMPLETENESS_TOL:
            raise ValueError(f"POVM elements do not sum to identity (defect {defect:.3e})")
        for e in elems:
            if not np.linalg.eigvalsh(e)[0] >= POVM_EIGENVALUE_FLOOR:
                raise ValueError("POVM element has a negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


def _check_dims(ch: KrausChannel, ens: Ensemble):
    if ens.dim != ch.din:
        raise DimensionMismatchError(
            f"ensemble dim {ens.dim} does not match channel input dim {ch.din}"
        )


def chi(ch: KrausChannel, ens: Ensemble) -> float:
    """Holevo quantity S(sum_j p_j out_j) - sum_j p_j S(out_j) in bits."""
    _check_dims(ch, ens)
    outputs = [channels.apply(ch, s) for s in ens.states]
    avg = sum(p * o.mat for p, o in zip(ens.probs, outputs))
    member = sum(p * von_neumann_entropy(o) for p, o in zip(ens.probs, outputs))
    return float(von_neumann_entropy(DensityMatrix(avg)) - member)


def chi_via_relative_entropy(ch: KrausChannel, ens: Ensemble) -> float:
    """Holevo quantity as the average relative entropy of the channel outputs
    with respect to the average output.

    Agrees with `chi` to 1e-9 on every valid input; zero-probability members
    are skipped (they contribute nothing and may lie outside the average's
    support).
    """
    _check_dims(ch, ens)
    outputs = [channels.apply(ch, s) for s in ens.states]
    avg = DensityMatrix(sum(p * o.mat for p, o in zip(ens.probs, outputs)))
    total = 0.0
    for p, o in zip(ens.probs, outputs):
        if p > 0:
            total += p * relative_entropy(o, avg)
    return float(total)


def mutual_information(ch: KrausChannel, ens: Ensemble, m: Povm) -> float:
    """Classical mutual information of the input letter and the measurement
    outcome, P(k|j) = tr(Phi(rho_j) E_k)."""
    _check_dims(ch, ens)
    if m.dim != ch.dout:
        raise DimensionMismatchError(
            f"POVM dim {m.dim} does not match channel output dim {ch.dout}"
        )
    outputs = [channels.apply(ch, s) for s in ens.states]
    joint = np.empty((len(outputs), len(m.elements)))
    for j, out in enumerate(outputs):
        for k, e in enumerate(m.elements):
            joint[j, k] = ens.probs[j] * max(float(np.real(np.trace(out.mat @ e))), 0.0)
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
    states = tuple(
        DensityMatrix(np.diag(row).astype(np.complex128)) for row in np.eye(d)
    )
    return Ensemble(np.full(d, 1.0 / d), states)


def random_povm(dim: int, k: int | None = None, rng: np.random.Generator | None = None) -> Povm:
    """Random POVM from k positive matrices normalized by the inverse square
    root of their sum; k defaults to dim + 1 so the measurement is
    non-projective."""
    if rng is None:
        rng = np.random.default_rng()
    if k is None:
        k = dim + 1
    raw = []
    for _ in range(k):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Povm(tuple(inv_sqrt @ r @ inv_sqrt for r in raw))
