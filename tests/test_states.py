import numpy as np
import pytest

from chancap import (
    DensityMatrix,
    DimensionMismatchError,
    basis_state,
    eigenvalues,
    maximally_mixed,
    partial_trace,
    tensor,
)
from random_inputs import random_density_matrix


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_tensor_identity_case():
    out = tensor(maximally_mixed(2), maximally_mixed(2))
    assert out.dim == 4
    np.testing.assert_allclose(out.mat, np.eye(4) / 4, atol=1e-15)


def test_tensor_basis_case():
    out = tensor(basis_state(2, 0), basis_state(2, 1))
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |01>
    np.testing.assert_allclose(out.mat, expected, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3])
def test_tensor_partial_trace_round_trip(d):
    rng = np.random.default_rng(42 + d)
    for _ in range(20):
        rho = random_density_matrix(d, rng)
        sigma = random_density_matrix(d, rng)
        prod = tensor(rho, sigma)
        back = partial_trace(prod, [d, d], {0})
        np.testing.assert_allclose(back.mat, rho.mat, atol=1e-10)
        back2 = partial_trace(prod, [d, d], {1})
        np.testing.assert_allclose(back2.mat, sigma.mat, atol=1e-10)


def test_partial_trace_maximally_entangled():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / np.sqrt(2)
    pair = DensityMatrix(np.outer(amps, amps.conj()))
    reduced = partial_trace(pair, [2, 2], {0})
    np.testing.assert_allclose(reduced.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = random_density_matrix(6, rng)
        reduced = partial_trace(rho, [2, 3], {0})
        assert abs(np.trace(reduced.mat) - 1.0) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_trace(maximally_mixed(4), [2, 3], {0})


def test_eigenvalues_maximally_mixed():
    spec = eigenvalues(maximally_mixed(4))
    np.testing.assert_allclose(spec, np.full(4, 0.25), atol=1e-14)


def test_eigenvalues_pure_state():
    spec = eigenvalues(basis_state(3, 1))
    np.testing.assert_allclose(spec, [1.0, 0.0, 0.0], atol=1e-14)


def test_eigenvalues_depolarized_pure_qubit():
    # Delta_0.5 on |0><0| has spectrum {lam + (1-lam)/d, (1-lam)/d} = {0.75, 0.25}
    rho = DensityMatrix(np.diag([0.75, 0.25]))
    spec = eigenvalues(rho)
    np.testing.assert_allclose(spec, [0.75, 0.25], atol=1e-12)


def test_spectrum_descending_and_normalized():
    rng = np.random.default_rng(11)
    for _ in range(25):
        spec = eigenvalues(random_density_matrix(5, rng))
        assert np.all(np.diff(spec) <= 0)
        assert np.all(spec >= 0)
        assert abs(spec.sum() - 1.0) < 1e-9
        assert not spec.flags.writeable
