import math

import numpy as np
import pytest

from chancap import (
    DensityMatrix,
    DimensionMismatchError,
    basis_state,
    maximally_mixed,
    relative_entropy,
    von_neumann_entropy,
)
from chancap.sampling import random_density_matrix

# binary entropy H(0.25) = -0.75*log2(0.75) - 0.25*log2(0.25), frozen
H_QUARTER = 0.8112781244591328


def test_entropy_pure_state_is_zero():
    assert von_neumann_entropy(basis_state(2, 0)) == pytest.approx(0.0, abs=1e-12)


def test_entropy_maximally_mixed_qubit():
    assert von_neumann_entropy(maximally_mixed(2)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_binary_spectrum():
    rho = DensityMatrix(np.diag([0.75, 0.25]))
    assert von_neumann_entropy(rho) == pytest.approx(H_QUARTER, abs=1e-12)


def test_entropy_range():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        for _ in range(20):
            s = von_neumann_entropy(random_density_matrix(d, rng))
            assert -1e-9 <= s <= math.log2(d) + 1e-9


def test_relative_entropy_self_is_zero():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(3, rng)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_disjoint_support_is_infinite():
    a = basis_state(2, 0)
    b = basis_state(2, 1)
    assert relative_entropy(a, b) == math.inf


def test_relative_entropy_example():
    # S(diag(0.75, 0.25) || I/2) = 1 - H(0.25)
    a = DensityMatrix(np.diag([0.75, 0.25]))
    assert relative_entropy(a, maximally_mixed(2)) == pytest.approx(1 - H_QUARTER, abs=1e-12)


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        relative_entropy(maximally_mixed(2), maximally_mixed(3))


def test_relative_entropy_nonnegative():
    rng = np.random.default_rng(17)
    for _ in range(30):
        a = random_density_matrix(3, rng)
        b = random_density_matrix(3, rng)
        assert relative_entropy(a, b) >= -1e-10


def test_relative_entropy_jointly_convex():
    rng = np.random.default_rng(23)
    for _ in range(20):
        k = 3
        w = rng.dirichlet(np.ones(k))
        pairs = [
            (random_density_matrix(3, rng), random_density_matrix(3, rng))
            for _ in range(k)
        ]
        mix_a = DensityMatrix(sum(wi * a.mat for wi, (a, _) in zip(w, pairs)))
        mix_b = DensityMatrix(sum(wi * b.mat for wi, (_, b) in zip(w, pairs)))
        avg = sum(wi * relative_entropy(a, b) for wi, (a, b) in zip(w, pairs))
        assert relative_entropy(mix_a, mix_b) <= avg + 1e-9
