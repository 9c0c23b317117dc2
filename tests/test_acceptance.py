"""Acceptance suite: every criterion at its stated tolerance and runtime
budget, one pass/fail line each (run with `pytest tests/test_acceptance.py -v -s`).

The optimizer criteria use the full default budgets (32 restarts, at most 2000
iterations); the whole module takes about 15 s on two cores.
"""

import gc
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from chancap import (
    Ensemble,
    PeriodicChannel,
    ConvexCombinationChannel,
    apply,
    capacity_convex_depolarizing,
    capacity_periodic_depolarizing,
    chi,
    chi_periodic_average,
    chi_star_depolarizing,
    chi_via_relative_entropy,
    depolarizing,
    eigenvalues,
    maximize_avg_chi,
    maximize_chi,
    maximize_min_chi,
    mix_channels,
    mutual_information,
    random_povm,
    s_min_depolarizing,
    tensor_channels,
)
from chancap.cli import main as cli_main
from chancap.optimize import OptimizerConfig
from random_inputs import random_density_matrix, random_pure_state

# Frozen oracles: direct evaluation of the closed-form S_min expression
# (binary entropies computed independently at high precision).
S_MIN_HALF = 0.8112781244591328       # H(0.25)
CHI_HALF = 0.18872187554086717        # 1 - H(0.25)
CHI_09 = 0.7136030428840438           # 1 - H(0.05)
PERIODIC_09_05 = 0.45116245921245546  # 1 - (H(0.05) + H(0.25)) / 2

CFG = OptimizerConfig(seed=7)


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    # Collect the earlier tests' garbage first: a full collection takes tens
    # of milliseconds and would otherwise land in the timed block by chance.
    gc.collect()
    start = time.perf_counter()
    try:
        yield
    except AssertionError:
        print(f"FAIL criterion {num}: {label} [{time.perf_counter() - start:.3f}s]")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {num}: {label} [{elapsed:.3f}s]")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


def test_criterion_1_closed_form_oracle_equality():
    chi_star_depolarizing(2, 0.5)  # warm up
    with criterion(1, "closed-form oracle equality", 1e-3):
        assert abs(chi_star_depolarizing(2, 0.5) - 0.188722) <= 1e-6
        assert abs(s_min_depolarizing(2, 0.5) - 0.811278) <= 1e-6
        assert chi_star_depolarizing(2, 0.5) == pytest.approx(CHI_HALF, abs=1e-12)
        assert s_min_depolarizing(2, 0.5) == pytest.approx(S_MIN_HALF, abs=1e-12)


def test_criterion_2_optimizer_recovers_closed_form():
    with criterion(2, "optimizer recovers chi*(Delta_0.5)", 30.0):
        res = maximize_chi(depolarizing(2, 0.5), 4, CFG)
        assert res.value == pytest.approx(CHI_HALF, abs=1e-3)


def test_criterion_3_theorem1_instantiation():
    with criterion(3, "periodic capacity matches optimized average", 60.0):
        closed = capacity_periodic_depolarizing(2, [0.9, 0.5])
        assert closed == pytest.approx(PERIODIC_09_05, abs=1e-6)
        per = PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))
        res = maximize_avg_chi(per, cfg=CFG)
        assert res.value == pytest.approx(closed, abs=1e-3)


def test_criterion_4_theorem2_instantiation():
    with criterion(4, "convex-combination capacity matches maximin", 60.0):
        closed = capacity_convex_depolarizing(2, [0.9, 0.5])
        assert closed == pytest.approx(CHI_HALF, abs=1e-6)
        cc = ConvexCombinationChannel(
            (depolarizing(2, 0.9), depolarizing(2, 0.5)), [0.5, 0.5]
        )
        res = maximize_min_chi(cc, cfg=CFG)
        assert res.value == pytest.approx(closed, abs=1e-3)


def test_criterion_5_additivity_desk_check():
    with criterion(5, "two-use entangled search shows no additivity excess", 600.0):
        two_use = tensor_channels([depolarizing(2, 0.5)] * 2)
        gap = maximize_chi(two_use, 16, CFG).value - 2.0 * chi_star_depolarizing(2, 0.5)
        assert gap <= 1e-3, f"excess over additivity: {gap}"
        assert gap >= -1e-2, f"optimizer fell short of the closed form: {gap}"


def test_criterion_6_holevo_bound_property_suite():
    with criterion(6, "mutual information never beats chi (100 triples)", 10.0):
        rng = np.random.default_rng(606)
        for d in (2, 3):
            for _ in range(50):
                lam = rng.uniform(-1 / (d * d - 1), 1.0)
                ch = depolarizing(d, lam)
                m = int(rng.integers(1, 5))
                ens = Ensemble(
                    rng.dirichlet(np.ones(m)),
                    tuple(random_density_matrix(d, rng) for _ in range(m)),
                )
                povm = random_povm(d, rng=rng)
                assert mutual_information(ch, ens, povm) <= chi(ch, ens) + 1e-9


def test_criterion_7_dual_path_chi_equality():
    with criterion(7, "chi equals its relative-entropy form (50 inputs)", 5.0):
        rng = np.random.default_rng(707)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            lam = rng.uniform(-1 / (d * d - 1), 1.0)
            ch = depolarizing(d, lam)
            m = int(rng.integers(1, 5))
            ens = Ensemble(
                rng.dirichlet(np.ones(m)),
                tuple(random_density_matrix(d, rng) for _ in range(m)),
            )
            assert abs(chi(ch, ens) - chi_via_relative_entropy(ch, ens)) <= 1e-9


def test_criterion_8_mixing_convexity():
    with criterion(8, "mixture chi bounded by branch average (50 ensembles)", 5.0):
        rng = np.random.default_rng(808)
        branches = [depolarizing(2, 0.9), depolarizing(2, 0.5)]
        per = PeriodicChannel(tuple(branches))
        mixed = mix_channels(branches, [0.5, 0.5])
        for _ in range(50):
            m = int(rng.integers(1, 5))
            ens = Ensemble(
                rng.dirichlet(np.ones(m)),
                tuple(random_density_matrix(2, rng) for _ in range(m)),
            )
            assert chi(mixed, ens) <= chi_periodic_average(per, ens) + 1e-9


def test_criterion_9_depolarizing_spectrum_law():
    with criterion(9, "output spectra follow the depolarizing law", 5.0):
        rng = np.random.default_rng(909)
        for d in (2, 3):
            states = [random_pure_state(d, rng) for _ in range(50)]
            for lam in np.linspace(-1 / (d * d - 1), 1.0, 5):
                ch = depolarizing(d, lam)
                expected = np.sort(
                    np.concatenate(
                        [[lam + (1 - lam) / d], np.full(d - 1, (1 - lam) / d)]
                    )
                )[::-1]
                for psi in states:
                    spec = eigenvalues(apply(ch, psi))
                    np.testing.assert_allclose(spec, expected, atol=1e-10)


def test_criterion_10_cli_contract(capsys):
    with criterion(10, "CLI byte-stability, values and exit codes", 1.0):
        cases = [
            (["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"], CHI_HALF),
            (["capacity", "periodic", "--d", "2", "--lambdas", "0.9,0.5"], PERIODIC_09_05),
            (["capacity", "convex", "--d", "2", "--lambdas", "0.9,0.5"], CHI_HALF),
        ]
        for argv, expected in cases:
            assert cli_main(argv) == 0
            first = capsys.readouterr().out
            assert cli_main(argv) == 0
            second = capsys.readouterr().out
            assert first == second, "output not byte-stable"
            assert json.loads(first)["results"]["closed_form"] == pytest.approx(
                expected, abs=1e-6
            )
        code = cli_main(["capacity", "depolarizing", "--d", "2", "--lambda", "-0.4"])
        captured = capsys.readouterr()
        assert code == 2
        assert "[-0.333333, 1]" in captured.err
