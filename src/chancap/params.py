"""Validators of channel parameters and probability vectors.

They use the standard library alone, so the closed-form capacities and the
CLI commands built on them run without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CPViolationError

WEIGHT_SUM_TOL = 1e-12  # every probability vector: weights, gammas, ensembles


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


def check_weights(weights: Sequence[float], count: int, name: str):
    """Raise ValueError unless `weights` is a flat sequence of `count`
    nonnegative numbers summing to 1 within WEIGHT_SUM_TOL (NaN fails both
    tests)."""
    try:
        values = [float(w) for w in weights]
    except TypeError:  # not iterable, or an entry that is itself a sequence
        raise ValueError(f"{name}s must be a flat sequence of numbers, got {weights!r}") from None
    if len(values) != count:
        raise ValueError(f"need {count} {name}s, got {len(values)}")
    if not (all(w >= 0 for w in values) and abs(sum(values) - 1.0) <= WEIGHT_SUM_TOL):
        raise ValueError(f"{name}s must be a probability vector, got {values}")
