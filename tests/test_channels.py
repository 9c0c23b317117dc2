import functools
import itertools
import re

import numpy as np
import pytest

from chancap import (
    CapabilityError,
    ConvexCombinationChannel,
    CPViolationError,
    DensityMatrix,
    DimensionMismatchError,
    Ensemble,
    KrausChannel,
    PeriodicChannel,
    Povm,
    apply,
    basis_state,
    convex_uses,
    depolarizing,
    eigenvalues,
    identity_channel,
    maximally_mixed,
    mix_channels,
    periodic_branch,
    periodic_uses,
    tensor,
    tensor_channels,
)
from chancap import capacity, channels, optimize
from chancap.sampling import random_density_matrix, random_pure_state


def depolarize_directly(d, lam, rho):
    return lam * rho + (1 - lam) / d * np.eye(d)


@pytest.mark.parametrize("d,lam", [(2, 1.0), (2, 0.5), (2, 0.0), (2, -1 / 3), (3, 0.7), (3, -0.125)])
def test_depolarizing_matches_map_form(d, lam):
    ch = depolarizing(d, lam)
    rng = np.random.default_rng(1)
    for _ in range(10):
        rho = random_density_matrix(d, rng)
        out = apply(ch, rho)
        np.testing.assert_allclose(out.mat, depolarize_directly(d, lam, rho.mat), atol=1e-10)


def test_depolarizing_identity_at_lambda_one():
    ch = depolarizing(2, 1.0)
    rng = np.random.default_rng(2)
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(apply(ch, rho).mat, rho.mat, atol=1e-12)


def test_depolarizing_constant_at_lambda_zero():
    ch = depolarizing(2, 0.0)
    rng = np.random.default_rng(3)
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(apply(ch, rho).mat, np.eye(2) / 2, atol=1e-12)


def test_depolarizing_cp_violation():
    with pytest.raises(CPViolationError, match=r"\[-0.333333, 1\]"):
        depolarizing(2, -0.4)
    with pytest.raises(CPViolationError):
        depolarizing(2, 1.1)
    with pytest.raises(CPViolationError, match=r"\[-0.125000, 1\]"):
        depolarizing(3, -0.2)


def test_kraus_completeness_checked():
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel((np.eye(2) * 0.5,))


@pytest.mark.parametrize(
    "terms,message",
    [
        ((), "at least one Kraus term"),
        ((np.ones(2),), re.escape("must be matrices, got shape (2,)")),
        ((np.eye(2), np.eye(3)), "share one shape"),
    ],
    ids=["empty", "vector", "ragged"],
)
def test_kraus_terms_checked(terms, message):
    with pytest.raises(ValueError, match=message):
        KrausChannel(terms)


def _weyl_reference(d):
    """X^a Z^b, term a*d + b, as matrix powers of shift and phase and their
    product."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d), 1, axis=0)  # X|j> = |j+1 mod d>
    phase = np.diag(omega ** np.arange(d))  # Z|j> = omega^j |j>
    return np.array([
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(phase, b)
        for a in range(d) for b in range(d)
    ])


@pytest.mark.parametrize("d", range(2, 9))
def test_weyl_operators_closed_form(d):
    ops, reference = channels._weyl_operators(d), _weyl_reference(d)
    assert ops.shape == (d * d, d, d)
    if d <= 4:
        assert np.array_equal(ops, reference)
    else:
        assert np.max(np.abs(ops - reference)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4])
def test_depolarizing_needs_no_matrix_power(monkeypatch, d):
    lam = 0.3
    weights = np.full(d * d, (1 - lam) / d**2)
    weights[0] += lam
    expected = np.sqrt(weights)[:, None, None] * _weyl_reference(d)

    def refuse(*args):
        raise AssertionError("matrix_power called")

    monkeypatch.setattr(np.linalg, "matrix_power", refuse)
    assert np.array_equal(depolarizing(d, lam).kraus, expected)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(depolarizing(2, 0.5), maximally_mixed(3))


def test_apply_example_qubit():
    out = apply(depolarizing(2, 0.5), basis_state(2, 0))
    np.testing.assert_allclose(out.mat, np.diag([0.75, 0.25]), atol=1e-12)


def test_apply_preserves_trace_randomly():
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        lam = rng.uniform(-1 / (d * d - 1), 1)
        rho = random_density_matrix(d, rng)
        out = apply(depolarizing(d, lam), rho)
        assert abs(np.trace(out.mat) - 1) < 1e-12


def test_tensor_channels_identity():
    ch = tensor_channels([identity_channel(2), identity_channel(2)])
    rng = np.random.default_rng(5)
    rho = random_density_matrix(4, rng)
    np.testing.assert_allclose(apply(ch, rho).mat, rho.mat, atol=1e-12)


def test_tensor_channels_product_spectrum():
    ch = tensor_channels([depolarizing(2, 0.9), depolarizing(2, 0.5)])
    out = apply(ch, tensor(basis_state(2, 0), basis_state(2, 0)))
    expected = sorted(
        [0.95 * 0.75, 0.95 * 0.25, 0.05 * 0.75, 0.05 * 0.25], reverse=True
    )
    np.testing.assert_allclose(eigenvalues(out), expected, atol=1e-10)


def test_tensor_channels_term_count():
    a = depolarizing(2, 0.5)  # 4 terms
    b = depolarizing(2, 0.9)  # 4 terms
    assert len(tensor_channels([a, b]).kraus) == 16


@pytest.mark.parametrize("lambdas", [(0.7, 0.3), (0.9, 0.5, -0.1)], ids=["two", "three"])
def test_tensor_channels_terms_are_kron_products(lambdas):
    # bit for bit, in the order of itertools.product over the factors' terms
    factors = [depolarizing(2, lam) for lam in lambdas]
    expected = [functools.reduce(np.kron, combo) for combo in itertools.product(*(f.kraus for f in factors))]
    np.testing.assert_array_equal(tensor_channels(factors).kraus, np.stack(expected))
    # a 3 x 2 term beside two 2 x 3 ones, cut from random isometries
    rng = np.random.default_rng(8)
    isometry = [np.linalg.qr(rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c)))[0] for r, c in ((3, 2), (4, 3))]
    a, b = KrausChannel((isometry[0],)), KrausChannel((isometry[1][:2], isometry[1][2:]))
    np.testing.assert_array_equal(tensor_channels([a, b]).kraus, np.stack([np.kron(a.kraus[0], k) for k in b.kraus]))


def test_tensor_channels_product_action():
    rng = np.random.default_rng(6)
    a, b = depolarizing(2, 0.7), depolarizing(2, 0.3)
    prod = tensor_channels([a, b])
    rho = random_density_matrix(2, rng)
    sigma = random_density_matrix(2, rng)
    out = apply(prod, tensor(rho, sigma))
    np.testing.assert_allclose(
        out.mat, np.kron(apply(a, rho).mat, apply(b, sigma).mat), atol=1e-10
    )


def two_branch_periodic():
    return PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))


def test_periodic_branch_order():
    per = two_branch_periodic()
    rng = np.random.default_rng(7)
    rho = random_density_matrix(4, rng)
    direct = tensor_channels([depolarizing(2, 0.9), depolarizing(2, 0.5)])
    np.testing.assert_allclose(
        apply(periodic_branch(per, 0, 2), rho).mat, apply(direct, rho).mat, atol=1e-12
    )


def test_periodic_branch_modular_wrap():
    per = two_branch_periodic()
    rng = np.random.default_rng(8)
    rho = random_density_matrix(4, rng)
    wrapped = tensor_channels([depolarizing(2, 0.5), depolarizing(2, 0.9)])
    np.testing.assert_allclose(
        apply(periodic_branch(per, 1, 2), rho).mat, apply(wrapped, rho).mat, atol=1e-12
    )


def test_periodic_branch_period_one():
    per = PeriodicChannel((depolarizing(2, 0.5),))
    rng = np.random.default_rng(9)
    rho = random_density_matrix(8, rng)
    direct = tensor_channels([depolarizing(2, 0.5)] * 3)
    np.testing.assert_allclose(
        apply(periodic_branch(per, 0, 3), rho).mat, apply(direct, rho).mat, atol=1e-12
    )


def test_periodic_branch_recursion_identity():
    # Psi_i^(n) acts as branch_i tensor Psi_{i+1}^(n-1)
    per = two_branch_periodic()
    rng = np.random.default_rng(10)
    for i in range(2):
        lhs = periodic_branch(per, i, 2)
        rhs = tensor_channels([per.branches[i], periodic_branch(per, (i + 1) % 2, 1)])
        for _ in range(5):
            rho = random_density_matrix(4, rng)
            np.testing.assert_allclose(apply(lhs, rho).mat, apply(rhs, rho).mat, atol=1e-12)


def test_periodic_branch_index_error():
    with pytest.raises(IndexError):
        periodic_branch(two_branch_periodic(), 2, 1)


def test_product_size_cap():
    per = PeriodicChannel((depolarizing(3, 0.5),))
    with pytest.raises(CapabilityError):
        periodic_branch(per, 0, 3)  # 3^3 = 27 > 16


def test_two_use_product_size_cap():
    # two uses count against the cap like any other number: 5^2 = 25 > 16
    per = PeriodicChannel((depolarizing(5, 0.5),))
    with pytest.raises(CapabilityError, match="^input dimension 25 exceeds the desk-scale cap 16$"):
        periodic_branch(per, 0, 2)
    with pytest.raises(CapabilityError):
        periodic_uses(per, 2)
    with pytest.raises(CapabilityError):
        convex_uses(ConvexCombinationChannel(per.branches, [1.0]), 2)


@pytest.mark.parametrize(
    "n,error,message",
    [
        (0, ValueError, "number of uses must be positive, got 0"),
        (-1, ValueError, "number of uses must be positive, got -1"),
        (2.0, TypeError, "n must be an integer, got 2.0"),
        (5, CapabilityError, "input dimension 32 exceeds the desk-scale cap 16"),
    ],
)
@pytest.mark.parametrize(
    "uses,channel",
    [
        (periodic_uses, PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))),
        (convex_uses, ConvexCombinationChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)), [0.3, 0.7])),
    ],
    ids=["periodic", "convex"],
)
def test_bad_number_of_uses_same_error(monkeypatch, uses, channel, n, error, message):
    # both n-use constructors refuse a bad n alike, before any product is formed
    def kron(*args):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", kron)
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        uses(channel, n)


def test_tensor_channels_size_cap(monkeypatch):
    # refused before any Kronecker product of the 625 pairs of 5x5 terms is formed
    def kron(*args):
        raise AssertionError("Kronecker products formed")

    monkeypatch.setattr(channels, "_kron_terms", kron)
    with pytest.raises(CapabilityError, match="input dimension 25"):
        tensor_channels([depolarizing(5, 0.5)] * 2)


# every entry point that the size cap guards: a builder of its input, the call
# on that input, and the input dimension the call would reach
OVER_CAP = {
    "tensor_channels": (lambda: [depolarizing(5, 0.5)] * 2, tensor_channels, 25),
    "periodic_uses": (lambda: PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5))),
                      lambda ch: periodic_uses(ch, 5), 32),
    "convex_uses": (lambda: ConvexCombinationChannel((depolarizing(2, 0.9),), [1.0]),
                    lambda ch: convex_uses(ch, 5), 32),
    "verify_additivity": (lambda: None, lambda _: capacity.verify_additivity(5, 0.5), 25),
    "verify_theorem1": (lambda: None, lambda _: capacity.verify_theorem1(5, [0.9, 0.5]), 25),
    "verify_theorem2": (lambda: None, lambda _: capacity.verify_theorem2(5, [0.9, 0.5]), 25),
    "maximize_chi": (lambda: depolarizing(17, 0.5), optimize.maximize_chi, 17),
}


@pytest.mark.parametrize("entry", OVER_CAP)
def test_every_over_cap_entry_point_refuses_alike(monkeypatch, entry):
    # one message, raised before any Kronecker product, channel, transfer
    # matrix or start state is built
    build, call, dim = OVER_CAP[entry]
    arg = build()

    def fail(*args, **kwargs):
        raise AssertionError("work done before the size check")

    for owner, name in [(np, "kron"), (channels, "_kron_terms"), (channels, "depolarizing"), (optimize, "random_unit_vectors"),
                        (optimize, "_ascend")]:
        monkeypatch.setattr(owner, name, fail)
    monkeypatch.setattr(KrausChannel, "transfer", property(fail))
    with pytest.raises(CapabilityError, match=f"^input dimension {dim} exceeds the desk-scale cap 16$"):
        call(arg)


def test_mix_channels_dimension_mismatch():
    with pytest.raises(DimensionMismatchError,
                       match=re.escape("channels to mix must share one (din, dout), got [(2, 2), (3, 3)]")):
        mix_channels([depolarizing(3, 0.5), depolarizing(2, 0.5)], [0.5, 0.5])


def test_apply_periodic_single_branch():
    per = PeriodicChannel((depolarizing(2, 0.5),))
    rng = np.random.default_rng(11)
    rho = random_density_matrix(4, rng)
    direct = tensor_channels([depolarizing(2, 0.5)] * 2)
    np.testing.assert_allclose(apply(periodic_uses(per, 2), rho).mat, apply(direct, rho).mat, atol=1e-12)


def test_apply_periodic_single_use_average():
    per = two_branch_periodic()
    rng = np.random.default_rng(12)
    rho = random_density_matrix(2, rng)
    expected = 0.5 * (
        apply(depolarizing(2, 0.9), rho).mat + apply(depolarizing(2, 0.5), rho).mat
    )
    np.testing.assert_allclose(apply(periodic_uses(per, 1), rho).mat, expected, atol=1e-12)


def test_apply_periodic_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(periodic_uses(two_branch_periodic(), 1), maximally_mixed(3))


def test_apply_convex_single_branch():
    cc = ConvexCombinationChannel((depolarizing(2, 0.5),), [1.0])
    rng = np.random.default_rng(14)
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(
        apply(convex_uses(cc, 1), rho).mat, apply(depolarizing(2, 0.5), rho).mat, atol=1e-12
    )


def test_apply_convex_degenerate_mixture():
    cc = ConvexCombinationChannel((depolarizing(2, 0.5), depolarizing(2, 0.5)), [0.5, 0.5])
    rng = np.random.default_rng(15)
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(
        apply(convex_uses(cc, 1), rho).mat, apply(depolarizing(2, 0.5), rho).mat, atol=1e-12
    )


def test_apply_convex_weighted_example():
    cc = ConvexCombinationChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)), [0.3, 0.7])
    out = apply(convex_uses(cc, 1), basis_state(2, 0))
    expected = 0.3 * np.diag([0.95, 0.05]) + 0.7 * np.diag([0.75, 0.25])
    np.testing.assert_allclose(out.mat, expected, atol=1e-12)


def test_convex_gamma_validation():
    with pytest.raises(ValueError, match="probability"):
        ConvexCombinationChannel((depolarizing(2, 0.5),), [0.9])
    with pytest.raises(ValueError, match="flat sequence"):
        ConvexCombinationChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)), [[0.5], [0.5]])


def test_convex_gammas_must_be_positive():
    # with weight 0 the channel is the other branch alone, whose capacity is
    # not the worst branch's; mix_channels keeps nonnegative weights
    branches = (depolarizing(2, 0.9), depolarizing(2, 0.5))
    with pytest.raises(ValueError, match=r"gammas must be positive, got \[1.0, 0.0\]"):
        ConvexCombinationChannel(branches, [1.0, 0.0])
    assert mix_channels(branches, [1.0, 0.0]).din == 2


def test_weights_reject_nan():
    branches = (depolarizing(2, 0.9), depolarizing(2, 0.5))
    with pytest.raises(ValueError, match="probability"):
        ConvexCombinationChannel(branches, [float("nan"), float("nan")])
    with pytest.raises(ValueError, match="probability"):
        mix_channels(branches, [float("nan"), 1.0])


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Ensemble([NAN, NAN], (maximally_mixed(2), maximally_mixed(2))),
        lambda: DensityMatrix(np.full((2, 2), NAN)),
        lambda: KrausChannel((np.eye(2), np.full((2, 2), NAN))),
        lambda: Povm((np.eye(2) / 2, np.full((2, 2), NAN))),
    ],
    ids=["Ensemble", "DensityMatrix", "KrausChannel", "Povm"],
)
def test_constructors_reject_nan(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: maximally_mixed(2),
        lambda: depolarizing(2, 0.5),
        lambda: PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5))),
        lambda: ConvexCombinationChannel((depolarizing(2, 0.9),), [1.0]),
        lambda: Ensemble([1.0], (maximally_mixed(2),)),
        lambda: Povm((np.eye(2),)),
    ],
    ids=["DensityMatrix", "KrausChannel", "PeriodicChannel",
         "ConvexCombinationChannel", "Ensemble", "Povm"],
)
def test_array_holders_compare_by_identity(build):
    # comparing or hashing the arrays inside would raise
    a, b = build(), build()
    assert not a == b and a != b
    assert {a: 1, b: 2}[a] == 1


@pytest.mark.parametrize("d", [2, 3])
def test_depolarizing_output_spectrum_law(d):
    rng = np.random.default_rng(16 + d)
    lambdas = np.linspace(-1 / (d * d - 1), 1.0, 5)
    for lam in lambdas:
        ch = depolarizing(d, lam)
        for _ in range(10):
            psi = random_pure_state(d, rng)
            spec = eigenvalues(apply(ch, psi))
            expected = np.sort(
                np.concatenate([[lam + (1 - lam) / d], np.full(d - 1, (1 - lam) / d)])
            )[::-1]
            np.testing.assert_allclose(spec, expected, atol=1e-10)

