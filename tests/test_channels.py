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
    PureState,
    Spectrum,
    apply,
    apply_convex,
    apply_periodic,
    basis_state,
    depolarizing,
    eigenvalues,
    identity_channel,
    maximally_mixed,
    mix_channels,
    periodic_branch,
    tensor,
    tensor_channels,
)
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


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(depolarizing(2, 0.5), maximally_mixed(3))


def test_apply_example_qubit():
    out = apply(depolarizing(2, 0.5), basis_state(2, 0).to_density())
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
    out = apply(ch, tensor(basis_state(2, 0).to_density(), basis_state(2, 0).to_density()))
    expected = sorted(
        [0.95 * 0.75, 0.95 * 0.25, 0.05 * 0.75, 0.05 * 0.25], reverse=True
    )
    np.testing.assert_allclose(eigenvalues(out).values, expected, atol=1e-10)


def test_tensor_channels_term_count():
    a = depolarizing(2, 0.5)  # 4 terms
    b = depolarizing(2, 0.9)  # 4 terms
    assert len(tensor_channels([a, b]).kraus) == 16


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


def test_apply_periodic_single_branch():
    per = PeriodicChannel((depolarizing(2, 0.5),))
    rng = np.random.default_rng(11)
    rho = random_density_matrix(4, rng)
    direct = tensor_channels([depolarizing(2, 0.5)] * 2)
    np.testing.assert_allclose(apply_periodic(per, rho, 2).mat, apply(direct, rho).mat, atol=1e-12)


def test_apply_periodic_single_use_average():
    per = two_branch_periodic()
    rng = np.random.default_rng(12)
    rho = random_density_matrix(2, rng)
    expected = 0.5 * (
        apply(depolarizing(2, 0.9), rho).mat + apply(depolarizing(2, 0.5), rho).mat
    )
    np.testing.assert_allclose(apply_periodic(per, rho, 1).mat, expected, atol=1e-12)


def test_apply_periodic_two_code_paths():
    per = two_branch_periodic()
    rng = np.random.default_rng(13)
    mixture = mix_channels(
        [periodic_branch(per, i, 2) for i in range(2)], [0.5, 0.5]
    )
    for _ in range(5):
        rho = random_density_matrix(4, rng)
        np.testing.assert_allclose(
            apply_periodic(per, rho, 2).mat, apply(mixture, rho).mat, atol=1e-12
        )


def test_apply_periodic_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_periodic(two_branch_periodic(), maximally_mixed(3), 1)


def test_apply_convex_single_branch():
    cc = ConvexCombinationChannel((depolarizing(2, 0.5),), [1.0])
    rng = np.random.default_rng(14)
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(
        apply_convex(cc, rho, 1).mat, apply(depolarizing(2, 0.5), rho).mat, atol=1e-12
    )


def test_apply_convex_degenerate_mixture():
    cc = ConvexCombinationChannel((depolarizing(2, 0.5), depolarizing(2, 0.5)), [0.5, 0.5])
    rng = np.random.default_rng(15)
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(
        apply_convex(cc, rho, 1).mat, apply(depolarizing(2, 0.5), rho).mat, atol=1e-12
    )


def test_apply_convex_weighted_example():
    cc = ConvexCombinationChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)), [0.3, 0.7])
    out = apply_convex(cc, basis_state(2, 0).to_density(), 1)
    expected = 0.3 * np.diag([0.95, 0.05]) + 0.7 * np.diag([0.75, 0.25])
    np.testing.assert_allclose(out.mat, expected, atol=1e-12)


def test_convex_gamma_validation():
    with pytest.raises(ValueError, match="probability"):
        ConvexCombinationChannel((depolarizing(2, 0.5),), [0.9])


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
        lambda: PureState([NAN, NAN]),
        lambda: Spectrum([NAN]),
    ],
    ids=["Ensemble", "DensityMatrix", "KrausChannel", "Povm", "PureState", "Spectrum"],
)
def test_constructors_reject_nan(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: maximally_mixed(2),
        lambda: basis_state(2, 0),
        lambda: eigenvalues(maximally_mixed(2)),
        lambda: depolarizing(2, 0.5),
        lambda: PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5))),
        lambda: ConvexCombinationChannel((depolarizing(2, 0.9),), [1.0]),
        lambda: Ensemble([1.0], (maximally_mixed(2),)),
        lambda: Povm((np.eye(2),)),
    ],
    ids=["DensityMatrix", "PureState", "Spectrum", "KrausChannel", "PeriodicChannel",
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
            spec = eigenvalues(apply(ch, psi.to_density())).values
            expected = np.sort(
                np.concatenate([[lam + (1 - lam) / d], np.full(d - 1, (1 - lam) / d)])
            )[::-1]
            np.testing.assert_allclose(spec, expected, atol=1e-10)

