import numpy as np
import pytest

from chancap import (
    ConvexCombinationChannel,
    DimensionMismatchError,
    Ensemble,
    PeriodicChannel,
    Povm,
    apply,
    chi,
    chi_branch_min,
    chi_periodic_average,
    chi_via_relative_entropy,
    convex_uses,
    depolarizing,
    eigenvalues,
    identity_channel,
    maximally_mixed,
    maximize_avg_chi,
    maximize_chi,
    maximize_min_chi,
    mix_channels,
    mutual_information,
    partial_trace,
    periodic_branch,
    periodic_uses,
    random_povm,
    relative_entropy,
    shannon_entropy,
    tensor,
    tensor_channels,
    uniform_orthonormal_ensemble,
    von_neumann_entropy,
)
from chancap import holevo, optimize
from random_inputs import haar_unitary, random_density_matrix, random_pure_state

# chi of Delta_0.5 on the uniform qubit basis: 1 - H(0.25), frozen
CHI_HALF = 0.18872187554086717


def random_ensemble(d, m, rng, pure=False):
    probs = rng.dirichlet(np.ones(m))
    if pure:
        states = tuple(random_pure_state(d, rng) for _ in range(m))
    else:
        states = tuple(random_density_matrix(d, rng) for _ in range(m))
    return Ensemble(probs, states)


def test_ensemble_validation():
    with pytest.raises(ValueError, match="probability"):
        Ensemble([0.5, 0.4], (maximally_mixed(2), maximally_mixed(2)))
    with pytest.raises(DimensionMismatchError):
        Ensemble([0.5, 0.5], (maximally_mixed(2), maximally_mixed(3)))


def test_ensemble_states_must_be_density_matrices():
    with pytest.raises(TypeError, match="^ensemble states must be DensityMatrix, got ndarray$"):
        Ensemble([1.0], (np.eye(2),))


_CH = depolarizing(2, 0.5)
_ENS = uniform_orthonormal_ensemble(2)
_PERIODIC = PeriodicChannel((depolarizing(2, 0.9), _CH))
_CONVEX = ConvexCombinationChannel(_PERIODIC.branches, [0.5, 0.5])
_MIXED = maximally_mixed(2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: apply(_CH, np.eye(2) / 2), "state must be DensityMatrix, got ndarray"),
        (lambda: apply(np.eye(2), maximally_mixed(2)), "channel must be KrausChannel, got ndarray"),
        (lambda: chi(_CH, _ENS.states), "ensemble must be Ensemble, got tuple"),
        (lambda: chi_via_relative_entropy(_CH.kraus, _ENS), "channel must be KrausChannel, got ndarray"),
        (lambda: mutual_information(_CH, _ENS, [np.eye(2)]), "POVM must be Povm, got list"),
        (lambda: mutual_information(_CH, _ENS.states, random_povm(2, np.random.default_rng(0))),
         "ensemble must be Ensemble, got tuple"),
        (lambda: tensor_channels([_CH, np.eye(2)]), "channels must be KrausChannel, got ndarray"),
        (lambda: mix_channels([_CH, _CH.kraus], [0.5, 0.5]), "channels must be KrausChannel, got ndarray"),
        (lambda: PeriodicChannel([_CH, "x"]), "branches must be KrausChannel, got str"),
        (lambda: ConvexCombinationChannel((None, _CH), [0.5, 0.5]), "branches must be KrausChannel, got NoneType"),
        # the other memory channel's objective is no answer for this one
        pytest.param(lambda: maximize_avg_chi(_CONVEX),
                     "channel must be PeriodicChannel, got ConvexCombinationChannel", id="maximize_avg_chi-convex"),
        pytest.param(lambda: chi_periodic_average(_CONVEX, _ENS),
                     "channel must be PeriodicChannel, got ConvexCombinationChannel", id="chi_periodic_average-convex"),
        pytest.param(lambda: maximize_min_chi(_PERIODIC),
                     "channel must be ConvexCombinationChannel, got PeriodicChannel", id="maximize_min_chi-periodic"),
        pytest.param(lambda: chi_branch_min(_PERIODIC, _ENS),
                     "channel must be ConvexCombinationChannel, got PeriodicChannel", id="chi_branch_min-periodic"),
        pytest.param(lambda: chi_periodic_average(_CH, _ENS),
                     "channel must be PeriodicChannel, got KrausChannel", id="chi_periodic_average-kraus"),
        pytest.param(lambda: chi_branch_min(_PERIODIC.branches, _ENS),
                     "channel must be ConvexCombinationChannel, got tuple", id="chi_branch_min-tuple"),
        pytest.param(lambda: periodic_branch(_CONVEX, 0, 2),
                     "channel must be PeriodicChannel, got ConvexCombinationChannel", id="periodic_branch-convex"),
        pytest.param(lambda: periodic_uses(_CH, 2),
                     "channel must be PeriodicChannel, got KrausChannel", id="periodic_uses-kraus"),
        pytest.param(lambda: convex_uses(_PERIODIC, 2),
                     "channel must be ConvexCombinationChannel, got PeriodicChannel", id="convex_uses-periodic"),
        pytest.param(lambda: maximize_chi(np.eye(2), 4),
                     "channel must be KrausChannel, got ndarray", id="maximize_chi-ndarray"),
        pytest.param(lambda: maximize_avg_chi(_CH),
                     "channel must be PeriodicChannel, got KrausChannel", id="maximize_avg_chi-kraus"),
        pytest.param(lambda: maximize_min_chi(_CH),
                     "channel must be ConvexCombinationChannel, got KrausChannel", id="maximize_min_chi-kraus"),
        pytest.param(lambda: von_neumann_entropy(np.eye(2) / 2),
                     "state must be DensityMatrix, got ndarray", id="von_neumann_entropy"),
        pytest.param(lambda: eigenvalues(np.eye(2) / 2),
                     "state must be DensityMatrix, got ndarray", id="eigenvalues"),
        pytest.param(lambda: partial_trace(np.eye(4) / 4, [2, 2], [0]),
                     "state must be DensityMatrix, got ndarray", id="partial_trace"),
        pytest.param(lambda: relative_entropy(_MIXED, np.eye(2) / 2),
                     "second state must be DensityMatrix, got ndarray", id="relative_entropy"),
        pytest.param(lambda: tensor(_MIXED, np.eye(2) / 2),
                     "second state must be DensityMatrix, got ndarray", id="tensor"),
    ],
)
def test_wrong_argument_type_is_a_named_type_error(monkeypatch, call, message):
    # a maximize_* call is refused before its search starts
    def search(*args):
        raise AssertionError("search started before the type check")

    monkeypatch.setattr(optimize, "_ascend", search)
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


def test_povm_copies_the_given_elements_into_one_frozen_stack():
    given = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    povm = Povm(given)
    assert given.flags.writeable and not np.shares_memory(given, povm.elements)
    assert Povm(np.asfortranarray(given)).elements.flags.c_contiguous
    given[0, 0, 0] = 7.0  # the POVM does not see it
    assert povm.elements[0, 0, 0] == 1.0
    for built, shape in ((povm, (2, 2, 2)), (Povm((np.eye(3),)), (1, 3, 3)),
                         (random_povm(3, np.random.default_rng(0)), (4, 3, 3))):
        elements = built.elements
        assert type(elements) is np.ndarray and elements.dtype == np.complex128
        assert elements.shape == shape and built.dim == shape[1]
        assert not elements.flags.writeable
        assert elements.flags.c_contiguous


def test_povm_validation():
    with pytest.raises(ValueError, match="identity"):
        Povm((np.eye(2) * 0.5,))
    with pytest.raises(ValueError, match="negative"):
        Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))
    # sums to the identity with positive lower triangles, which eigvalsh reads alone
    with pytest.raises(ValueError, match="not Hermitian"):
        Povm(([[1, 1], [0, 0]], [[0, -1], [0, 1]]))
    with pytest.raises(ValueError, match="square matrices"):
        Povm((1.0,))
    # 0 x 0 elements would reach the identity-sum check with nothing to sum
    for empty in (np.zeros((2, 0, 0)), (np.zeros((0, 0)),)):
        with pytest.raises(ValueError, match=r"^POVM elements must have nonzero dimensions, got shape \(0, 0\)$"):
            Povm(empty)


def test_chi_single_state_is_zero():
    ens = Ensemble([1.0], (maximally_mixed(2),))
    assert chi(depolarizing(2, 0.5), ens) == pytest.approx(0.0, abs=1e-12)


def test_chi_identity_uniform_basis():
    assert chi(identity_channel(2), uniform_orthonormal_ensemble(2)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_chi_depolarizing_uniform_basis():
    assert chi(depolarizing(2, 0.5), uniform_orthonormal_ensemble(2)) == pytest.approx(
        CHI_HALF, abs=1e-12
    )


def test_chi_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        chi(depolarizing(2, 0.5), Ensemble([1.0], (maximally_mixed(3),)))


def test_chi_via_relative_entropy_single_state():
    ens = Ensemble([1.0], (maximally_mixed(2),))
    assert chi_via_relative_entropy(depolarizing(2, 0.5), ens) == pytest.approx(0.0, abs=1e-12)


def test_chi_via_relative_entropy_example():
    val = chi_via_relative_entropy(depolarizing(2, 0.5), uniform_orthonormal_ensemble(2))
    assert val == pytest.approx(CHI_HALF, abs=1e-12)


def test_chi_dual_path_equality_random():
    rng = np.random.default_rng(31)
    for _ in range(50):
        d = int(rng.integers(2, 4))
        lam = rng.uniform(0.05, 1.0)
        ch = depolarizing(d, lam)
        ens = random_ensemble(d, int(rng.integers(1, 5)), rng)
        assert abs(chi(ch, ens) - chi_via_relative_entropy(ch, ens)) <= 1e-9


def test_zero_probability_members_contribute_nothing():
    ch = depolarizing(2, 0.5)
    base = uniform_orthonormal_ensemble(2)
    padded = Ensemble(
        np.array([0.5, 0.5, 0.0]),
        base.states + (random_pure_state(2, np.random.default_rng(1)),),
    )
    povm = random_povm(2, rng=np.random.default_rng(2))
    for fn in (chi, chi_via_relative_entropy, lambda c, e: mutual_information(c, e, povm)):
        val = fn(ch, padded)
        assert np.isfinite(val)
        assert val == pytest.approx(fn(ch, base), abs=1e-12)


def test_mutual_information_single_state():
    povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    ens = Ensemble([1.0], (maximally_mixed(2),))
    assert mutual_information(depolarizing(2, 0.5), ens, povm) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_binary_symmetric_channel():
    # computational-basis readout of Delta_0.5 on {|0>,|1>} is a BSC with
    # flip probability 0.25, so I(X:Y) = 1 - H(0.25)
    povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    val = mutual_information(depolarizing(2, 0.5), uniform_orthonormal_ensemble(2), povm)
    assert val == pytest.approx(CHI_HALF, abs=1e-12)


def _mutual_information_loop(ch, ens, povm):
    """mutual_information written out one (member, element) pair at a time."""
    outputs = [apply(ch, s) for s in ens.states]
    joint = np.empty((len(outputs), len(povm.elements)))
    for j, out in enumerate(outputs):
        for k, e in enumerate(povm.elements):
            joint[j, k] = ens.probs[j] * max(float(np.real(np.trace(out.mat @ e))), 0.0)
    return shannon_entropy(joint.sum(axis=1)) + shannon_entropy(joint.sum(axis=0)) - shannon_entropy(joint)


def test_mutual_information_matches_the_pairwise_loop():
    rng = np.random.default_rng(47)
    for d in (2, 3, 4):
        for _ in range(20):
            ch = depolarizing(d, rng.uniform(-1 / (d * d - 1), 1.0))
            ens = random_ensemble(d, int(rng.integers(1, 6)), rng, pure=bool(rng.integers(2)))
            povm = random_povm(d, rng=rng)
            assert abs(mutual_information(ch, ens, povm) - _mutual_information_loop(ch, ens, povm)) <= 1e-15


def test_holevo_bound_random_povms():
    rng = np.random.default_rng(37)
    for _ in range(40):
        d = int(rng.integers(2, 4))
        lam = rng.uniform(-1 / (d * d - 1), 1.0)
        ch = depolarizing(d, lam)
        ens = random_ensemble(d, int(rng.integers(1, 5)), rng)
        povm = random_povm(d, rng=rng)
        mi = mutual_information(ch, ens, povm)
        assert mi <= chi(ch, ens) + 1e-9
        entropy_of_inputs = -np.sum(ens.probs[ens.probs > 0] * np.log2(ens.probs[ens.probs > 0]))
        assert -1e-12 <= mi <= min(entropy_of_inputs, np.log2(len(povm.elements))) + 1e-9


@pytest.mark.parametrize("rank", [0, -1, 2.0, True, "2"], ids=repr)
def test_random_density_matrix_rank_checked(monkeypatch, rank):
    # checked before any draw
    def fail(*args, **kwargs):
        raise AssertionError("drawn before the rank check")

    monkeypatch.setattr(holevo, "_wishart", fail)
    if isinstance(rank, int) and not isinstance(rank, bool):
        with pytest.raises(ValueError, match=f"^rank must be positive, got {rank}$"):
            random_density_matrix(2, np.random.default_rng(0), rank)
    else:
        with pytest.raises(TypeError, match=f"rank must be an integer, got {rank!r}"):
            random_density_matrix(2, np.random.default_rng(0), rank)


def test_random_draws_unchanged():
    # a fixed generator gives the Wishart draws written out in full, real
    # parts before imaginary, bit for bit
    def gaussian(rng, shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    rng = np.random.default_rng(5)
    raw = [g @ g.conj().T for g in (gaussian(rng, (3, 3)) for _ in range(4))]
    w, v = np.linalg.eigh(sum(raw))
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    povm = random_povm(3, rng=np.random.default_rng(5))
    for element, r in zip(povm.elements, raw, strict=True):
        np.testing.assert_array_equal(element, inv_sqrt @ r @ inv_sqrt)
    g = gaussian(np.random.default_rng(6), (4, 2))
    rho = g @ g.conj().T
    np.testing.assert_array_equal(
        random_density_matrix(4, np.random.default_rng(6), 2).mat, rho / np.trace(rho)
    )


def test_random_povm_is_complete_and_nonprojective():
    povm = random_povm(3, rng=np.random.default_rng(2))
    assert len(povm.elements) == 4
    np.testing.assert_allclose(sum(povm.elements), np.eye(3), atol=1e-9)


def test_chi_periodic_average_single_branch():
    per = PeriodicChannel((depolarizing(2, 0.5),))
    ens = uniform_orthonormal_ensemble(2)
    assert chi_periodic_average(per, ens) == pytest.approx(
        chi(depolarizing(2, 0.5), ens), abs=1e-12
    )


def test_chi_periodic_average_example():
    per = PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))
    val = chi_periodic_average(per, uniform_orthonormal_ensemble(2))
    assert val == pytest.approx(0.45116245921245546, abs=1e-9)


def test_chi_periodic_average_single_state():
    per = PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))
    ens = Ensemble([1.0], (maximally_mixed(2),))
    assert chi_periodic_average(per, ens) == pytest.approx(0.0, abs=1e-12)


def test_chi_branch_min_single_branch():
    cc = ConvexCombinationChannel((depolarizing(2, 0.5),), [1.0])
    ens = uniform_orthonormal_ensemble(2)
    assert chi_branch_min(cc, ens) == pytest.approx(chi(depolarizing(2, 0.5), ens), abs=1e-12)


def test_chi_branch_min_example():
    cc = ConvexCombinationChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)), [0.5, 0.5])
    val = chi_branch_min(cc, uniform_orthonormal_ensemble(2))
    assert val == pytest.approx(CHI_HALF, abs=1e-9)


def test_chi_branch_min_identical_branches():
    cc = ConvexCombinationChannel((depolarizing(2, 0.5), depolarizing(2, 0.5)), [0.4, 0.6])
    ens = uniform_orthonormal_ensemble(2)
    assert chi_branch_min(cc, ens) == pytest.approx(chi(depolarizing(2, 0.5), ens), abs=1e-12)


def test_mixing_convexity_of_chi():
    # chi of the uniformly mixed single-use channel never beats the branch average
    rng = np.random.default_rng(41)
    branches = [depolarizing(2, 0.9), depolarizing(2, 0.5)]
    per = PeriodicChannel(tuple(branches))
    mixed = mix_channels(branches, [0.5, 0.5])
    for _ in range(50):
        ens = random_ensemble(2, int(rng.integers(1, 5)), rng)
        assert chi(mixed, ens) <= chi_periodic_average(per, ens) + 1e-9


def test_chi_unitary_covariance_depolarizing():
    rng = np.random.default_rng(43)
    ch = depolarizing(3, 0.6)
    for _ in range(10):
        ens = random_ensemble(3, 3, rng, pure=True)
        u = haar_unitary(3, rng)
        rotated = Ensemble(
            ens.probs,
            tuple(type(s)(u @ s.mat @ u.conj().T) for s in ens.states),
        )
        assert chi(ch, rotated) == pytest.approx(chi(ch, ens), abs=1e-9)
