"""Closed-form capacities of depolarizing-branch channels and the
verification drivers that compare them against the optimizer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import channels, holevo, optimize
from .channels import (
    ConvexCombinationChannel,
    DepolarizingParams,
    PeriodicChannel,
    depolarizing,
    mix_channels,
    tensor_channels,
)
from .optimize import OptimizerConfig

# Default check tolerances: how closely the ascent must match a closed form
# on product ensembles, and how much excess over the closed form a two-use
# entangled search may show before the run counts as a contradiction.
PRODUCT_MATCH_TOL = 1e-3
TWO_USE_EXCESS_TOL = 1e-2
GAP_EXCESS_TOL = 1e-3
GAP_SHORTFALL_TOL = 1e-2


@dataclass(frozen=True)
class Check:
    """One named pass/fail comparison inside a report."""

    name: str
    passed: bool
    value: float
    bound: float
    tol: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "value": float(self.value),
            "bound": float(self.bound),
            "tol": float(self.tol),
        }


@dataclass(frozen=True)
class CapacityReport:
    """Closed form vs optimizer comparison for one channel: the optimizer
    value (None for a closed form alone), the checks that decide a pass,
    further results in `extras`, and remarks in `notes`."""

    closed_form: float
    optimizer_value: float | None = None
    checks: tuple[Check, ...] = ()
    extras: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def gap(self) -> float | None:
        """optimizer_value - closed_form, None without an optimizer value."""
        if self.optimizer_value is None:
            return None
        return self.optimizer_value - self.closed_form

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def results_dict(self) -> dict:
        out = {"closed_form": self.closed_form}
        if self.optimizer_value is not None:
            out["optimizer_value"] = self.optimizer_value
            out["gap"] = self.gap
        out.update(self.extras)
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def s_min_depolarizing(d: int, lam: float) -> float:
    """Minimum output entropy in bits, attained on any pure input."""
    DepolarizingParams(d, lam)  # validates the CP range
    big = lam + (1.0 - lam) / d
    small = (1.0 - lam) / d
    s = 0.0
    if big > 0:
        s -= big * math.log2(big)
    if small > 0:
        s -= (d - 1) * small * math.log2(small)
    return s


def chi_star_depolarizing(d: int, lam: float) -> float:
    """Holevo capacity log2(d) - S_min in bits."""
    return math.log2(d) - s_min_depolarizing(d, lam)


def _validate_lambdas(d: int, lambdas: Sequence[float]):
    if not len(lambdas):
        raise ValueError("need at least one branch parameter")
    for lam in lambdas:
        DepolarizingParams(d, lam)  # CPViolationError names the offending value


def capacity_periodic_depolarizing(d: int, lambdas: Sequence[float]) -> float:
    """Product-state capacity of the periodic channel with depolarizing
    branches: log2(d) minus the period-averaged minimum output entropy."""
    _validate_lambdas(d, lambdas)
    return math.log2(d) - float(np.mean([s_min_depolarizing(d, lam) for lam in lambdas]))


def capacity_convex_depolarizing(d: int, lambdas: Sequence[float]) -> float:
    """Product-state capacity of a convex combination of depolarizing
    channels: the worst branch's Holevo capacity.  The mixing weights do
    not enter."""
    _validate_lambdas(d, lambdas)
    return float(np.min([chi_star_depolarizing(d, lam) for lam in lambdas]))


def _dimension_note(d: int) -> tuple[str, ...]:
    if d > 2:
        return (
            "noiseless term taken as log2(d) for d > 2; the qubit case fixes "
            "the constant 1",
        )
    return ()


def report_depolarizing(d: int, lam: float) -> CapacityReport:
    return CapacityReport(
        closed_form=chi_star_depolarizing(d, lam),
        extras={"s_min": s_min_depolarizing(d, lam)},
    )


def report_periodic(d: int, lambdas: Sequence[float]) -> CapacityReport:
    return CapacityReport(
        closed_form=capacity_periodic_depolarizing(d, lambdas),
        extras={"branch_chi_star": [chi_star_depolarizing(d, l) for l in lambdas]},
        notes=_dimension_note(d),
    )


def report_convex(d: int, lambdas: Sequence[float], gammas: Sequence[float] | None = None) -> CapacityReport:
    """The mixing weights, when given, must be a probability vector with one
    entry per branch, as for ConvexCombinationChannel; they do not enter the
    closed form."""
    if gammas is not None:
        channels.check_weights(np.asarray(gammas, dtype=np.float64), len(lambdas), "gamma")
    return CapacityReport(
        closed_form=capacity_convex_depolarizing(d, lambdas),
        extras={"branch_chi_star": [chi_star_depolarizing(d, l) for l in lambdas]},
    )


def verify_additivity(
    d: int,
    lam: float,
    m: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CapacityReport:
    """Two-use entangled search on the doubled depolarizing channel against
    twice the single-use closed form."""
    single = chi_star_depolarizing(d, lam)
    two_use = tensor_channels([depolarizing(d, lam)] * 2)
    result = optimize.maximize_chi(two_use, m, cfg)
    gap = result.value - 2.0 * single
    checks = (
        Check("no_excess_over_additivity", gap <= GAP_EXCESS_TOL, gap, 0.0, GAP_EXCESS_TOL),
        Check("optimizer_reaches_closed_form", gap >= -GAP_SHORTFALL_TOL, gap, 0.0, GAP_SHORTFALL_TOL),
    )
    return CapacityReport(
        closed_form=2.0 * single,
        optimizer_value=result.value,
        checks=checks,
        extras={
            "chi_star_single": single,
            "restarts": cfg.restarts,
            "converged": result.converged,
            "duality_gap": result.duality_gap,
            "opt_seed": result.seed,
        },
    )


def verify_theorem1(
    d: int,
    lambdas: Sequence[float],
    m: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CapacityReport:
    """Periodic-channel verification: the ascent over shared product
    ensembles must match the closed form, and an entangled search over the
    two-use channel (the uniform mixture of the two-fold branch products)
    must not beat it per use.  Both searches use one seed, drawn once when
    `cfg` gives none."""
    closed = capacity_periodic_depolarizing(d, lambdas)
    cfg = cfg.seeded()
    branches = [depolarizing(d, lam) for lam in lambdas]
    periodic = PeriodicChannel(tuple(branches))

    product_side = optimize.maximize_avg_chi(periodic, m, cfg)

    period = len(branches)
    two_fold = [
        channels.periodic_branch(periodic, i, 2) for i in range(period)
    ]
    mixture = mix_channels(two_fold, np.full(period, 1.0 / period))
    two_use = optimize.maximize_chi(mixture, None, cfg)
    rate = two_use.value / 2.0
    # Convexity cross-check at the best entangled ensemble: the mixture's
    # Holevo quantity is bounded by the branch average.
    branch_avg = float(
        np.mean([holevo.chi(b, two_use.ensemble) for b in two_fold])
    )

    checks = (
        Check(
            "product_matches_closed_form",
            abs(product_side.value - closed) <= PRODUCT_MATCH_TOL,
            product_side.value,
            closed,
            PRODUCT_MATCH_TOL,
        ),
        Check(
            "two_use_rate_no_excess",
            rate <= closed + TWO_USE_EXCESS_TOL,
            rate,
            closed,
            TWO_USE_EXCESS_TOL,
        ),
        Check(
            "mixture_chi_below_branch_average",
            two_use.value <= branch_avg + 1e-9,
            two_use.value,
            branch_avg,
            1e-9,
        ),
    )
    return CapacityReport(
        closed_form=closed,
        optimizer_value=product_side.value,
        checks=checks,
        extras={
            "two_use_chi": two_use.value,
            "two_use_rate": rate,
            "two_use_branch_avg_chi": branch_avg,
            "restarts": cfg.restarts,
            "converged": product_side.converged and two_use.converged,
            "duality_gap": product_side.duality_gap,
            "opt_seed": product_side.seed,
        },
        notes=_dimension_note(d),
    )


def verify_theorem2(
    d: int,
    lambdas: Sequence[float],
    gammas: Sequence[float] | None = None,
    m: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CapacityReport:
    """Convex-combination verification: the one-use maximin ascent must
    match the worst-branch closed form, and the two-use maximin over the
    doubled branches must not beat it per use.  Both searches use one seed,
    drawn once when `cfg` gives none."""
    closed = capacity_convex_depolarizing(d, lambdas)
    cfg = cfg.seeded()
    n_branches = len(lambdas)
    if gammas is None:
        gammas = np.full(n_branches, 1.0 / n_branches)
    branches = tuple(depolarizing(d, lam) for lam in lambdas)
    convex = ConvexCombinationChannel(branches, gammas)

    one_use = optimize.maximize_min_chi(convex, m, cfg)

    doubled = tuple(tensor_channels([b] * 2) for b in branches)
    convex2 = ConvexCombinationChannel(doubled, convex.gammas)
    two_use = optimize.maximize_min_chi(convex2, None, cfg)
    rate = two_use.value / 2.0

    checks = (
        Check(
            "maximin_matches_closed_form",
            abs(one_use.value - closed) <= PRODUCT_MATCH_TOL,
            one_use.value,
            closed,
            PRODUCT_MATCH_TOL,
        ),
        Check(
            "two_use_rate_no_excess",
            rate <= closed + TWO_USE_EXCESS_TOL,
            rate,
            closed,
            TWO_USE_EXCESS_TOL,
        ),
    )
    return CapacityReport(
        closed_form=closed,
        optimizer_value=one_use.value,
        checks=checks,
        extras={
            "two_use_min_chi": two_use.value,
            "two_use_rate": rate,
            "restarts": cfg.restarts,
            "converged": one_use.converged and two_use.converged,
            "duality_gap": one_use.duality_gap,
            "opt_seed": one_use.seed,
        },
        notes=_dimension_note(d),
    )
