"""Validators of argument types, integers, channel parameters and probability vectors.

Each returns the value it checked, in the form its caller computes with: an
integer as a Python int, which cannot wrap as a numpy integer can, a
sequence as a tuple, a number as a float.  They use the standard library
alone, so the closed-form capacities and the CLI commands built on them run
without numpy.
"""

from __future__ import annotations

import numbers
import operator
from typing import Sequence

from .errors import CPViolationError

WEIGHT_SUM_TOL = 1e-12  # every probability vector: weights, gammas, ensembles


def check_integer(name: str, value) -> int:
    """`value` as an int; raise TypeError unless it is an integer other than a bool, as numbers.Integral tests."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def check_instance(name: str, value, kind: type):
    """`value`; raise TypeError unless it is a `kind`, naming the type it has."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be {kind.__name__}, got {type(value).__name__}")
    return value


def check_items(name: str, items, kind: type, empty_message: str) -> tuple:
    """`items` as a tuple; raise ValueError with `empty_message` if it is
    empty, and check_instance(name, item, kind) on each item."""
    items = tuple(items)
    if not items:
        raise ValueError(empty_message)
    for item in items:
        check_instance(name, item, kind)
    return items


def check_positive_integer(name: str, value) -> int:
    """check_integer, then raise ValueError unless `value` is at least 1."""
    value = check_integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_depolarizing(d: int, lam: float) -> float:
    """`lam` as a float once rho -> lam*rho + (1-lam)*I/d is a channel, so a
    reduced-precision lam is computed with in double precision; raise
    TypeError for a d that is not an integer, ValueError for d < 2, for a d
    whose bound -1/(d^2-1) overflows a double or for a lam that is not real
    (numpy orders complex ones, text fails to compare, and a bool or NaN is
    no lambda), CPViolationError for lam outside [-1/(d^2-1), 1]."""
    d = check_integer("d", d)  # a Python int, whose d**2 cannot wrap as a numpy integer's can
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if isinstance(lam, bool) or not isinstance(lam, numbers.Real) or lam != lam:  # NaN != NaN
        raise ValueError(f"lambda must be a real number, got {lam!r}")
    try:
        if not -1.0 / (d**2 - 1) <= lam <= 1.0:
            raise CPViolationError(d, lam)
    except OverflowError:  # d above about 1.34e154
        raise ValueError(f"dimension {d} is too large: -1/(d^2-1) overflows a double") from None
    return float(lam)


def check_weights(weights: Sequence[float], count: int, name: str) -> list[float]:
    """`weights` as floats; raise ValueError unless it is a flat sequence of
    `count` real, nonnegative numbers summing to 1 within WEIGHT_SUM_TOL (NaN
    fails both tests), rejecting a complex entry before float() drops its
    imaginary part, and text before float() parses it."""
    try:
        entries = list(weights)
        text = any(isinstance(w, (str, bytes, bytearray)) for w in entries)
        if text or any(isinstance(w, numbers.Complex) and not isinstance(w, numbers.Real) for w in entries):
            raise ValueError(f"{name}s must be real numbers, got {weights!r}")
        values = [float(w) for w in entries]
    except TypeError:  # not iterable, or an entry that is itself a sequence
        raise ValueError(f"{name}s must be a flat sequence of numbers, got {weights!r}") from None
    if len(values) != count:
        raise ValueError(f"need {count} {name}s, got {len(values)}")
    if not (all(w >= 0 for w in values) and abs(sum(values) - 1.0) <= WEIGHT_SUM_TOL):
        raise ValueError(f"{name}s must be a probability vector, got {values}")
    return values


def check_gammas(gammas: Sequence[float], count: int) -> list[float]:
    """check_weights for mixing weights, which must also be positive: a
    branch of weight 0 is never applied, yet the worst-branch capacity counts it."""
    values = check_weights(gammas, count, "gamma")
    if not all(g > 0 for g in values):
        raise ValueError(f"gammas must be positive, got {values}")
    return values
