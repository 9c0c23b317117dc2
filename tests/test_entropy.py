import math

import numpy as np
import pytest

from chancap import (
    DensityMatrix,
    DimensionMismatchError,
    Ensemble,
    basis_state,
    chi,
    chi_via_relative_entropy,
    depolarizing,
    eigenvalues,
    maximally_mixed,
    relative_entropy,
    shannon_entropy,
    uniform_orthonormal_ensemble,
    von_neumann_entropy,
)
from chancap.entropy import _relative_entropies
from random_inputs import random_density_matrix

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
    with pytest.raises(DimensionMismatchError):
        _relative_entropies([maximally_mixed(3), maximally_mixed(2)], maximally_mixed(3).mat)


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


MIXED_3 = maximally_mixed(3)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of np.linalg.eigvalsh and np.linalg.eigh calls from here on."""
    calls = {"eigvalsh": 0, "eigh": 0}

    def counting(name):
        solve = getattr(np.linalg, name)

        def counted(mat):
            calls[name] += 1
            return solve(mat)

        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


@pytest.mark.parametrize(
    "read",
    [von_neumann_entropy, eigenvalues, lambda a: relative_entropy(a, MIXED_3)],
    ids=["von_neumann_entropy", "eigenvalues", "relative_entropy"],
)
def test_spectrum_readers_reuse_the_construction_eigensolve(linalg_calls, read):
    a = random_density_matrix(3, np.random.default_rng(29))
    before = linalg_calls["eigvalsh"]
    read(a)
    # relative_entropy takes its second argument's eigenvectors from eigh
    assert linalg_calls["eigvalsh"] == before


def test_chi_diagonalises_each_matrix_once(linalg_calls):
    ch, ens = depolarizing(2, 0.5), uniform_orthonormal_ensemble(2)
    before = linalg_calls["eigvalsh"]
    chi(ch, ens)
    assert linalg_calls["eigvalsh"] - before == 3  # two outputs and their average


@pytest.mark.parametrize("m", [1, 2, 5])
def test_chi_via_relative_entropy_diagonalises_each_matrix_once(linalg_calls, m):
    rng = np.random.default_rng(31 + m)
    ens = Ensemble(rng.dirichlet(np.ones(m)), tuple(random_density_matrix(3, rng) for _ in range(m)))
    ch = depolarizing(3, 0.4)
    before = dict(linalg_calls)
    chi_via_relative_entropy(ch, ens)
    assert linalg_calls["eigvalsh"] - before["eigvalsh"] == m  # the m outputs
    assert linalg_calls["eigh"] - before["eigh"] == 1  # the average's eigenvectors, for every member


def _embedded(rho: DensityMatrix, d: int) -> DensityMatrix:
    """rho on the first rho.dim basis vectors of a d-dimensional space."""
    mat = np.zeros((d, d), dtype=complex)
    mat[: rho.dim, : rho.dim] = rho.mat
    return DensityMatrix(mat)


def test_relative_entropies_rows_are_relative_entropy():
    rng = np.random.default_rng(41)
    for d in (2, 3, 4):
        for b in (random_density_matrix(d, rng), _embedded(random_density_matrix(d - 1, rng), d)):
            states = [random_density_matrix(d, rng)]
            states += [random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1))) for _ in range(3)]
            states += [_embedded(random_density_matrix(d - 1, rng), d), b]
            rows = _relative_entropies(states, b.mat)
            assert rows.shape == (len(states),)
            for a, row in zip(states, rows):
                assert row == relative_entropy(a, b)
    # the last b has rank d - 1, so the full-rank first state is a support mismatch
    assert math.isinf(rows[0]) and rows[0] > 0
    assert rows[-1] == pytest.approx(0.0, abs=1e-12)


def test_stored_spectrum_is_the_fresh_one_and_read_only():
    rng = np.random.default_rng(37)
    for d in range(2, 17):
        rho = random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1)))
        assert von_neumann_entropy(rho) == shannon_entropy(np.linalg.eigvalsh(rho.mat))
        assert not rho._eigvals.flags.writeable
