import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancap import (
    CPViolationError,
    capacity_convex_depolarizing,
    capacity_periodic_depolarizing,
    chi,
    chi_periodic_average,
    chi_star_depolarizing,
    depolarizing,
    PeriodicChannel,
    s_min_depolarizing,
    uniform_orthonormal_ensemble,
    verify_additivity,
    verify_theorem1,
    verify_theorem2,
)
from chancap.capacity import CapacityReport, report_convex, report_depolarizing, report_periodic
from chancap.optimize import OptimizerConfig

FAST = OptimizerConfig(restarts=3, iters=300, seed=13)

# frozen closed-form values (direct evaluation of the S_min expression)
S_MIN_HALF = 0.8112781244591328
CHI_HALF = 0.18872187554086717
CHI_09 = 0.7136030428840438
PERIODIC_09_05 = 0.45116245921245546
CHI_BOUNDARY = 0.08170416594551044


def test_s_min_examples():
    assert s_min_depolarizing(2, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert s_min_depolarizing(3, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert s_min_depolarizing(2, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert s_min_depolarizing(2, 0.5) == pytest.approx(S_MIN_HALF, abs=1e-12)


def test_chi_star_examples():
    assert chi_star_depolarizing(3, 1.0) == pytest.approx(math.log2(3), abs=1e-12)
    assert chi_star_depolarizing(2, 0.5) == pytest.approx(CHI_HALF, abs=1e-12)
    assert chi_star_depolarizing(2, -1 / 3) == pytest.approx(CHI_BOUNDARY, abs=1e-9)


def test_closed_forms_reject_cp_violation():
    with pytest.raises(CPViolationError):
        s_min_depolarizing(2, -0.4)
    with pytest.raises(CPViolationError):
        chi_star_depolarizing(2, 1.2)
    with pytest.raises(CPViolationError):
        capacity_periodic_depolarizing(2, [0.5, -0.4])
    with pytest.raises(CPViolationError):
        capacity_convex_depolarizing(2, [0.5, 2.0])


def test_chi_star_monotone_on_unit_interval():
    for d in (2, 3):
        grid = np.arange(0.0, 1.0 + 1e-12, 0.01)
        vals = [chi_star_depolarizing(d, lam) for lam in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_capacity_periodic_examples():
    assert capacity_periodic_depolarizing(2, [0.5]) == pytest.approx(CHI_HALF, abs=1e-12)
    assert capacity_periodic_depolarizing(2, [0.9, 0.5]) == pytest.approx(
        PERIODIC_09_05, abs=1e-12
    )
    assert capacity_periodic_depolarizing(2, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_capacity_periodic_equal_branches_reduces():
    for lam in (0.2, 0.5, 0.9):
        assert abs(
            capacity_periodic_depolarizing(2, [lam, lam, lam])
            - chi_star_depolarizing(2, lam)
        ) < 1e-12


def test_capacity_convex_examples():
    assert capacity_convex_depolarizing(2, [0.5]) == pytest.approx(CHI_HALF, abs=1e-12)
    assert capacity_convex_depolarizing(2, [0.9, 0.5]) == pytest.approx(CHI_HALF, abs=1e-12)
    assert capacity_convex_depolarizing(2, [1.0, 1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_convex_below_periodic():
    rng = np.random.default_rng(2)
    for _ in range(20):
        lambdas = rng.uniform(-1 / 3, 1.0, size=3)
        assert (
            capacity_convex_depolarizing(2, lambdas)
            <= capacity_periodic_depolarizing(2, lambdas) + 1e-12
        )


def test_uniform_basis_achieves_periodic_capacity():
    per = PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))
    val = chi_periodic_average(per, uniform_orthonormal_ensemble(2))
    assert val == pytest.approx(capacity_periodic_depolarizing(2, [0.9, 0.5]), abs=1e-9)


@st.composite
def branch_sets(draw, max_branches=4):
    """A dimension d in {2, 3, 4} and 1..max_branches parameters in its
    completely positive range [-1/(d^2 - 1), 1]."""
    d = draw(st.sampled_from([2, 3, 4]))
    lam = st.floats(-1.0 / (d * d - 1), 1.0)
    return d, draw(st.lists(lam, min_size=1, max_size=max_branches))


@settings(derandomize=True, deadline=None)
@given(branch_sets(max_branches=1))
def test_uniform_basis_is_optimal_across_cp_range(branches):
    d, (lam,) = branches
    value = chi(depolarizing(d, lam), uniform_orthonormal_ensemble(d))
    assert value == pytest.approx(chi_star_depolarizing(d, lam), abs=1e-12)


@settings(derandomize=True, deadline=None)
@given(branch_sets(), st.data())
def test_memory_closed_forms_from_branch_capacities(branches, data):
    # periodic: the mean of the branch capacities; convex: their minimum,
    # whatever the mixing weights
    d, lambdas = branches
    stars = [chi_star_depolarizing(d, lam) for lam in lambdas]
    assert capacity_periodic_depolarizing(d, lambdas) == pytest.approx(np.mean(stars), abs=1e-12)
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(lambdas), max_size=len(lambdas)))
    gammas = np.array(weights) / sum(weights)
    assert report_convex(d, lambdas, gammas).closed_form == min(stars)


def test_capacity_reports():
    rep = report_depolarizing(2, 0.5)
    assert rep.closed_form == pytest.approx(CHI_HALF, abs=1e-12)
    assert rep.extras["s_min"] == pytest.approx(S_MIN_HALF, abs=1e-12)
    rep = report_periodic(2, [0.9, 0.5])
    assert rep.closed_form == pytest.approx(PERIODIC_09_05, abs=1e-12)
    assert not rep.notes
    rep = report_periodic(3, [0.9, 0.5])
    assert rep.notes  # flags the d > 2 reading of the noiseless term
    rep = report_convex(2, [0.9, 0.5], [0.3, 0.7])
    assert rep.closed_form == pytest.approx(CHI_HALF, abs=1e-12)


def test_verify_additivity_small_budget():
    rep = verify_additivity(2, 0.5, m=8, cfg=FAST)
    assert rep.passed
    assert rep.closed_form == pytest.approx(2 * CHI_HALF, abs=1e-12)
    assert rep.gap == pytest.approx(rep.optimizer_value - rep.closed_form, abs=1e-15)
    assert {c.name for c in rep.checks} == {
        "no_excess_over_additivity",
        "optimizer_reaches_closed_form",
    }


def test_verify_theorem1_small_budget():
    rep = verify_theorem1(2, [0.9, 0.5], cfg=FAST)
    assert rep.passed
    assert rep.closed_form == pytest.approx(PERIODIC_09_05, abs=1e-12)
    assert rep.optimizer_value == pytest.approx(PERIODIC_09_05, abs=1e-3)
    assert rep.extras["two_use_rate"] <= rep.closed_form + 1e-2
    # convexity cross-check is part of the report
    assert rep.extras["two_use_chi"] <= rep.extras["two_use_branch_avg_chi"] + 1e-9


def test_verify_theorem2_small_budget():
    rep = verify_theorem2(2, [0.9, 0.5], [0.3, 0.7], cfg=FAST)
    assert rep.passed
    assert rep.closed_form == pytest.approx(CHI_HALF, abs=1e-12)
    assert rep.optimizer_value == pytest.approx(CHI_HALF, abs=1e-3)
    assert rep.extras["two_use_rate"] <= rep.closed_form + 1e-2


@pytest.mark.parametrize(
    "verify,args",
    [
        (verify_additivity, (2, 0.5, 4)),
        (verify_theorem1, (2, [0.9, 0.5])),
        (verify_theorem2, (2, [0.9, 0.5], [0.3, 0.7])),
    ],
)
def test_reported_seed_reproduces_report(verify, args):
    # every search of a run draws from the one seed the report gives
    drawn = verify(*args, cfg=OptimizerConfig(restarts=2, iters=40))
    rerun = verify(*args, cfg=OptimizerConfig(restarts=2, iters=40, seed=drawn.extras["opt_seed"]))
    assert rerun.results_dict() == drawn.results_dict()
    assert rerun.checks == drawn.checks


def test_verify_theorem2_gamma_independent_closed_form():
    a = verify_theorem2(2, [0.9, 0.5], [0.5, 0.5], cfg=FAST)
    b = verify_theorem2(2, [0.9, 0.5], [0.1, 0.9], cfg=FAST)
    assert a.closed_form == b.closed_form


def test_check_failure_fails_report():
    rep = verify_additivity(2, 0.5, m=4, cfg=OptimizerConfig(restarts=1, iters=30, seed=3))
    # one random restart of 30 sweeps falls short of the closed form, and
    # only the lower-side check says so
    failed = {c.name: c for c in rep.checks if not c.passed}
    assert not rep.passed and set(failed) == {"optimizer_reaches_closed_form"}
    short = failed["optimizer_reaches_closed_form"]
    assert short.value < -short.tol
    # flipping a check by hand exercises the aggregation
    bad = CapacityReport(
        closed_form=rep.closed_form,
        checks=(type(rep.checks[0])("forced", False, 1.0, 0.0, 0.1),),
    )
    assert not bad.passed
