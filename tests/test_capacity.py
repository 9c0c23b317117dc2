import math
import numbers
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancap import (
    ConvexCombinationChannel,
    CPViolationError,
    DensityMatrix,
    DimensionMismatchError,
    Ensemble,
    Povm,
    capacity_convex_depolarizing,
    capacity_periodic_depolarizing,
    chi,
    chi_branch_min,
    chi_periodic_average,
    chi_star_depolarizing,
    depolarizing,
    mutual_information,
    PeriodicChannel,
    periodic_branch,
    s_min_depolarizing,
    tensor_channels,
    uniform_orthonormal_ensemble,
    verify_additivity,
    verify_theorem1,
    verify_theorem2,
)
from chancap.capacity import CapacityReport, report_convex, report_depolarizing, report_periodic
from chancap.channels import identity_channel
from chancap.holevo import random_povm
from chancap.optimize import OptimizerConfig, random_unit_vectors
from chancap.params import check_depolarizing, check_integer
from chancap.states import basis_state, maximally_mixed, partial_trace
from random_inputs import haar_unitary, random_density_matrix

FAST = OptimizerConfig(restarts=3, iters=300, seed=13)

# frozen closed-form values (direct evaluation of the S_min expression)
S_MIN_HALF = 0.8112781244591328
CHI_HALF = 0.18872187554086717
CHI_09 = 0.7136030428840438
PERIODIC_09_05 = 0.45116245921245546
CHI_BOUNDARY = 0.08170416594551044

TWO_SEARCH_CHECKS = [
    "one_use_no_excess",
    "one_use_reaches_closed_form",
    "two_use_no_excess",
    "two_use_reaches_closed_form",
]


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


@pytest.mark.parametrize("d", [10**200, 10**400], ids=["1e200", "1e400"])
@pytest.mark.parametrize(
    "call",
    [
        lambda d: check_depolarizing(d, 0.5),
        lambda d: chi_star_depolarizing(d, 0.5),
        lambda d: capacity_periodic_depolarizing(d, [0.5, 0.9]),
        lambda d: capacity_convex_depolarizing(d, [0.5, 0.9]),
    ],
    ids=["check", "chi_star", "periodic", "convex"],
)
def test_dimension_whose_bound_overflows_is_a_value_error(call, d):
    # -1/(d^2-1) does not fit a double once d exceeds about 1.34e154
    with pytest.raises(ValueError, match=f"^dimension {d} is too large: "):
        call(d)


def test_dimension_bound_is_exact_up_to_the_overflow():
    # at d = 1e154 the bound is -1e-308, still formed
    assert check_depolarizing(10**154, -1e-309) == -1e-309
    with pytest.raises(CPViolationError):
        check_depolarizing(10**154, -1e-300)
    # a numpy integer's d**2 would wrap (17**2 = 33 in uint8) and admit this lambda
    with pytest.raises(CPViolationError, match=re.escape("[-0.003472, 1]")):
        chi_star_depolarizing(np.uint8(17), -0.03)
    assert chi_star_depolarizing(np.uint8(17), 0.5) == chi_star_depolarizing(17, 0.5)


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
def branch_sets(draw, max_branches=4, dims=(2, 3, 4)):
    """A dimension d from `dims` and 1..max_branches parameters in its
    completely positive range [-1/(d^2 - 1), 1]."""
    d = draw(st.sampled_from(dims))
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


@settings(derandomize=True, deadline=None)
@given(branch_sets(dims=(2, 3)))
def test_two_use_targets_reached_by_product_basis(branches):
    # the verify drivers' two-use targets 2C are attained: the product of two
    # uniform computational-basis ensembles is the basis of the two-use input
    d, lambdas = branches
    product = uniform_orthonormal_ensemble(d * d)
    periodic = PeriodicChannel(tuple(depolarizing(d, lam) for lam in lambdas))
    pairs = PeriodicChannel(tuple(periodic_branch(periodic, i, 2) for i in range(periodic.period)))
    assert chi_periodic_average(pairs, product) == pytest.approx(
        2 * capacity_periodic_depolarizing(d, lambdas), abs=1e-12
    )
    doubled = tuple(tensor_channels([b] * 2) for b in periodic.branches)
    convex = ConvexCombinationChannel(doubled, np.full(len(doubled), 1.0 / len(doubled)))
    assert chi_branch_min(convex, product) == pytest.approx(
        2 * capacity_convex_depolarizing(d, lambdas), abs=1e-12
    )


def test_capacity_reports():
    rep = report_depolarizing(2, 0.5)
    assert rep.closed_form == pytest.approx(CHI_HALF, abs=1e-12)
    assert rep.extras["s_min"] == pytest.approx(S_MIN_HALF, abs=1e-12)
    rep = report_periodic(2, [0.9, 0.5])
    assert rep.closed_form == pytest.approx(PERIODIC_09_05, abs=1e-12)
    rep = report_convex(2, [0.9, 0.5], [0.3, 0.7])
    assert rep.closed_form == pytest.approx(CHI_HALF, abs=1e-12)


@pytest.mark.parametrize(
    "value", [2, np.int64(2), np.uint8(2), True, np.True_, 2.0, 2.5, "2", None], ids=repr
)
def test_check_integer_is_the_integral_test(value):
    # accepts exactly what numbers.Integral accepts, bools aside
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        check_integer("x", value)
    else:
        with pytest.raises(TypeError, match=re.escape(f"x must be an integer, got {value!r}")):
            check_integer("x", value)


PER = PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))
RNG = np.random.default_rng(0)
MIXED_4 = maximally_mixed(4)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: chi_star_depolarizing(2.5, 0.5), TypeError, "d must be an integer, got 2.5"),
        (lambda: capacity_periodic_depolarizing(2.0, [0.5]), TypeError, "d must be an integer, got 2.0"),
        (lambda: capacity_convex_depolarizing(3.7, [0.5]), TypeError, "d must be an integer, got 3.7"),
        (lambda: depolarizing(np.True_, 0.5), TypeError, f"d must be an integer, got {np.True_!r}"),
        (lambda: basis_state(2, True), TypeError, "k must be an integer, got True"),
        (lambda: OptimizerConfig(restarts=2.0), TypeError, "restarts must be an integer, got 2.0"),
        (lambda: periodic_branch(PER, 1.0, 2), TypeError, "i must be an integer, got 1.0"),
        (lambda: periodic_branch(PER, True, 2), TypeError, "i must be an integer, got True"),
        (lambda: basis_state(2.0, 0), TypeError, "dim must be an integer, got 2.0"),
        (lambda: basis_state(0, 0), ValueError, "dim must be positive, got 0"),
        (lambda: maximally_mixed(2.0), TypeError, "dim must be an integer, got 2.0"),
        (lambda: maximally_mixed(0), ValueError, "dim must be positive, got 0"),
        (lambda: identity_channel(2.0), TypeError, "d must be an integer, got 2.0"),
        (lambda: identity_channel(0), ValueError, "d must be positive, got 0"),
        (lambda: random_unit_vectors(2, 2.0, RNG), TypeError, "m must be an integer, got 2.0"),
        (lambda: random_unit_vectors(2, 0, RNG), ValueError, "m must be positive, got 0"),
        (lambda: random_unit_vectors(2.0, 2, RNG), TypeError, "dim must be an integer, got 2.0"),
        (lambda: haar_unitary(2.0, RNG), TypeError, "dim must be an integer, got 2.0"),
        (lambda: haar_unitary(-1, RNG), ValueError, "dim must be positive, got -1"),
        (lambda: random_density_matrix(2.0, RNG), TypeError, "dim must be an integer, got 2.0"),
        (lambda: random_density_matrix(0, RNG), ValueError, "dim must be positive, got 0"),
        (lambda: random_povm(0, RNG), ValueError, "dim must be positive, got 0"),
        (lambda: random_povm(-1, RNG), ValueError, "dim must be positive, got -1"),
        (lambda: random_povm(2.0, RNG), TypeError, "dim must be an integer, got 2.0"),
        (lambda: partial_trace(MIXED_4, [2, 2], [True]), TypeError,
         "keep entry must be an integer, got True"),
        (lambda: partial_trace(MIXED_4, [2, 2], [0.0]), TypeError,
         "keep entry must be an integer, got 0.0"),
        (lambda: partial_trace(MIXED_4, [2.0, 2.0], [0]), TypeError,
         "dims entry must be an integer, got 2.0"),
        (lambda: partial_trace(MIXED_4, [4, 1, 0], [0]), ValueError,
         "dims entry must be positive, got 0"),
    ],
    ids=["chi_star", "periodic", "convex", "depolarizing", "basis_state", "config",
         "branch_index_float", "branch_index_bool", "basis_state_dim", "basis_state_dim_0",
         "maximally_mixed", "maximally_mixed_0", "identity_channel", "identity_channel_0",
         "unit_vectors_m", "unit_vectors_m_0", "unit_vectors_dim", "haar_unitary",
         "haar_unitary_neg", "density_matrix", "density_matrix_0", "povm_0", "povm_neg",
         "povm_float", "keep_bool", "keep_float", "dims_float", "dims_0"],
)
def test_non_integer_rejected(call, error, message):
    # the error names the parameter at fault, an integer parameter that must
    # also be positive among them
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: capacity_periodic_depolarizing(2, []), ValueError, "need at least one branch parameter"),
        # the branch parameters are checked before the mixing weights
        (lambda: report_convex(2, [], [0.5, 0.5]), ValueError, "need at least one branch parameter"),
        (lambda: PeriodicChannel(()), ValueError, "periodic channel needs at least one branch"),
        (lambda: PeriodicChannel((depolarizing(2, 0.5), depolarizing(3, 0.5))), DimensionMismatchError,
         "all branches must share din = dout = d"),
        (lambda: tensor_channels([]), ValueError, "need at least one channel"),
        (lambda: Ensemble([], ()), ValueError, "ensemble needs at least one state"),
        (lambda: Povm(np.zeros((0, 2, 2))), ValueError, "POVM needs at least one element"),
        (lambda: mutual_information(depolarizing(2, 0.5), uniform_orthonormal_ensemble(2), random_povm(3, RNG)),
         DimensionMismatchError, "POVM dim 3 does not match channel output dim 2"),
        (lambda: DensityMatrix(np.ones(2) / 2), ValueError, "density matrix must be square, got shape (2,)"),
        (lambda: basis_state(2, 2), ValueError, "basis index 2 out of range for dim 2"),
        (lambda: partial_trace(MIXED_4, [2, 2], [2]), ValueError, "keep indices [2] out of range for 2 factors"),
        (lambda: partial_trace(MIXED_4, [2, 2], []), ValueError, "must keep at least one factor"),
    ],
    ids=["no_lambdas", "convex_no_lambdas", "no_branches", "branch_dims", "no_channels", "no_states",
         "no_povm_elements", "povm_dim", "density_matrix_vector", "basis_index", "keep_index", "keep_nothing"],
)
def test_empty_or_mismatched_input_rejected(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert caught.type is error


def test_records_are_validated_immutable_values():
    a, b = CapacityReport(1.0), CapacityReport(closed_form=1.0)
    assert a == b and a.gap is None and a.passed
    assert a.extras == {} and a.extras is not b.extras  # no shared default dict
    with pytest.raises(AttributeError):
        a.closed_form = 2.0
    assert check_depolarizing(d=3, lam=0.5) == 0.5 and check_depolarizing(2, -1 / 3) == -1 / 3
    with pytest.raises(CPViolationError):
        check_depolarizing(d=2, lam=1.5)
    with pytest.raises(CPViolationError):
        check_depolarizing(2, -0.34)
    with pytest.raises(ValueError, match="at least 2"):
        check_depolarizing(1, 0.5)


def test_verify_additivity_small_budget():
    rep = verify_additivity(2, 0.5, m=8, cfg=FAST)
    assert rep.passed
    assert rep.closed_form == pytest.approx(2 * CHI_HALF, abs=1e-12)
    assert rep.gap == pytest.approx(rep.optimizer_value - rep.closed_form, abs=1e-15)
    assert [c.name for c in rep.checks] == ["two_use_no_excess", "two_use_reaches_closed_form"]
    assert all(c.value == rep.optimizer_value and c.bound == rep.closed_form for c in rep.checks)


def test_verify_theorem1_small_budget():
    rep = verify_theorem1(2, [0.9, 0.5], cfg=FAST)
    assert rep.passed
    assert rep.closed_form == pytest.approx(PERIODIC_09_05, abs=1e-12)
    assert rep.optimizer_value == pytest.approx(PERIODIC_09_05, abs=1e-3)
    assert [c.name for c in rep.checks] == TWO_SEARCH_CHECKS
    # the two-use search runs on the cyclic branch products, against 2C
    assert all(c.bound == 2 * rep.closed_form for c in rep.checks[2:])


def test_verify_theorem1_three_branch_small_budget():
    # the uniform weights 1/3 of three periodic branches are not binary
    # fractions, unlike those of one or two
    lambdas = [0.9, 0.5, -0.1]
    rep = verify_theorem1(2, lambdas, cfg=FAST)
    assert rep.passed and rep.extras["converged"]
    assert rep.closed_form == capacity_periodic_depolarizing(2, lambdas)
    assert rep.optimizer_value == pytest.approx(rep.closed_form, abs=1e-9)
    assert [c.name for c in rep.checks] == TWO_SEARCH_CHECKS
    assert all(c.bound == 2 * rep.closed_form for c in rep.checks[2:])


def test_verify_theorem2_small_budget():
    rep = verify_theorem2(2, [0.9, 0.5], [0.3, 0.7], cfg=FAST)
    assert rep.passed
    assert rep.closed_form == pytest.approx(CHI_HALF, abs=1e-12)
    assert rep.optimizer_value == pytest.approx(CHI_HALF, abs=1e-3)
    assert [c.name for c in rep.checks] == TWO_SEARCH_CHECKS
    assert all(c.bound == 2 * rep.closed_form for c in rep.checks[2:])


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


def test_verify_additivity_default_budget():
    # no cfg: the default budget, under a seed drawn and reported
    rep = verify_additivity(2, 0.5)
    assert rep.passed and rep.extras["converged"]
    assert rep.extras["restarts"] == OptimizerConfig().restarts
    assert isinstance(rep.extras["opt_seed"], int)


def test_verify_theorem2_gamma_independent_closed_form():
    a = verify_theorem2(2, [0.9, 0.5], [0.5, 0.5], cfg=FAST)
    b = verify_theorem2(2, [0.9, 0.5], [0.1, 0.9], cfg=FAST)
    assert a.closed_form == b.closed_form


def test_check_failure_fails_report():
    rep = verify_additivity(2, 0.5, m=4, cfg=OptimizerConfig(restarts=1, iters=15, seed=3))
    # one random restart of 15 iterations falls short of the closed form
    # (by 2.8e-5 bits), and only the lower-side check says so
    failed = {c.name: c for c in rep.checks if not c.passed}
    assert not rep.passed and set(failed) == {"two_use_reaches_closed_form"}
    short = failed["two_use_reaches_closed_form"]
    assert short.value < short.bound - short.tol
    # flipping a check by hand exercises the aggregation
    bad = CapacityReport(
        closed_form=rep.closed_form,
        checks=(type(rep.checks[0])("forced", False, 1.0, 0.0, 0.1),),
    )
    assert not bad.passed
