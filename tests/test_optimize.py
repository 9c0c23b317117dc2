import math

import numpy as np
import pytest

from chancap import (
    CapabilityError,
    ConvexCombinationChannel,
    DensityMatrix,
    KrausChannel,
    PeriodicChannel,
    additivity_gap,
    apply,
    capacity_convex_depolarizing,
    chi,
    chi_branch_min,
    chi_periodic_average,
    chi_star_depolarizing,
    depolarizing,
    identity_channel,
    maximize_avg_chi,
    maximize_chi,
    maximize_min_chi,
    mix_channels,
    tensor_channels,
)
from chancap import optimize
from chancap.optimize import OptimizerConfig, _apply_pure, _Ascent, _ascend, _initial_states, _moves

# small budgets keep the unit tests quick; the acceptance suite runs the
# spec budgets
FAST = OptimizerConfig(restarts=4, iters=300, seed=7)


def test_identity_channel_capacity():
    res = maximize_chi(identity_channel(2), 2, FAST)
    assert res.value == pytest.approx(1.0, abs=1e-3)


def test_constant_channel_capacity_zero():
    res = maximize_chi(depolarizing(2, 0.0), 2, FAST)
    assert res.value == pytest.approx(0.0, abs=1e-6)


def test_depolarizing_recovers_closed_form():
    res = maximize_chi(depolarizing(2, 0.5), 4, FAST)
    assert res.value == pytest.approx(chi_star_depolarizing(2, 0.5), abs=1e-3)


def test_value_reproducible_from_ensemble():
    ch = depolarizing(2, 0.6)
    res = maximize_chi(ch, 4, FAST)
    assert abs(chi(ch, res.ensemble) - res.value) <= 1e-9


def test_avg_value_reproducible_from_ensemble():
    per = PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))
    res = maximize_avg_chi(per, 4, FAST)
    assert abs(chi_periodic_average(per, res.ensemble) - res.value) <= 1e-9


def test_min_value_reproducible_from_ensemble():
    cc = ConvexCombinationChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)), [0.5, 0.5])
    res = maximize_min_chi(cc, 4, FAST)
    assert abs(chi_branch_min(cc, res.ensemble) - res.value) <= 1e-9


def test_determinism_same_seed():
    ch = depolarizing(2, 0.5)
    a = maximize_chi(ch, 4, FAST)
    b = maximize_chi(ch, 4, FAST)
    assert a.value == b.value
    assert a.converged == b.converged
    assert a.duality_gap == b.duality_gap
    np.testing.assert_array_equal(a.ensemble.probs, b.ensemble.probs)
    for sa, sb in zip(a.ensemble.states, b.ensemble.states):
        np.testing.assert_array_equal(sa.mat, sb.mat)


def test_no_restart_starts_at_the_computational_basis(monkeypatch):
    starts = []

    def ascend(transfer, mode, psis, cfg, rngs):
        starts.append(psis)
        return _ascend(transfer, mode, psis, cfg, rngs)

    monkeypatch.setattr(optimize, "_ascend", ascend)
    maximize_chi(depolarizing(2, 0.5), 4, OptimizerConfig(restarts=4, iters=1, seed=0))
    (psis,) = starts
    assert psis.shape == (4, 4, 2)
    # a basis vector, up to phase, has one amplitude of modulus 1
    assert np.abs(psis).max() < 1 - 1e-6


def _transfers(channels):
    """The (branches, dout^2, din^2) array the optimizer takes."""
    return np.stack([ch.transfer for ch in channels])


def _restart_streams(seed, restarts, dim, m):
    """Per-restart generators and start states, drawn as _maximize does."""
    children = np.random.SeedSequence(seed).spawn(restarts)
    rngs = [np.random.Generator(np.random.PCG64(c)) for c in children]
    psis = np.stack([_initial_states(dim, m, rng) for rng in rngs])
    return rngs, psis


@pytest.mark.parametrize(
    "mode,channels,dim,m,cfg",
    [
        ("mean", (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 8,
         (OptimizerConfig(restarts=5, iters=200, seed=7), 60)),
        ("mean", (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 4,
         (OptimizerConfig(restarts=5, iters=300, seed=3), 200)),
        ("min", (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 4,
         (OptimizerConfig(restarts=5, iters=300, seed=7), 200)),
        # output dimension 9: the gradient's trace sums take numpy's pairwise
        # path, which sums in blocks of 8
        ("mean", (tensor_channels([depolarizing(3, 0.5)] * 2),), 9, 4,
         (OptimizerConfig(restarts=5, iters=80, seed=7), 20)),
        # patience < m: restarts 2 and 4 freeze inside sweep 3, 3 and 5
        # inside sweep 10
        ("mean", (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 16,
         (OptimizerConfig(restarts=6, iters=100, seed=7), 6)),
    ],
)
def test_batching_independence(monkeypatch, mode, channels, dim, m, cfg):
    # each restart run inside the batch must end exactly where it ends
    # alone; cfg pairs the budget with the freeze patience
    cfg, patience = cfg
    monkeypatch.setattr(optimize, "_PATIENCE", patience)
    transfer = _transfers(channels)
    rngs, psis = _restart_streams(cfg.seed, cfg.restarts, dim, m)
    batched = _ascend(transfer, mode, psis, cfg, rngs)
    sweeps = {out.iterations for out in batched}
    assert len(sweeps) > 1, "restarts should freeze at different sweeps"
    for r, together in enumerate(batched):
        rngs, psis = _restart_streams(cfg.seed, cfg.restarts, dim, m)
        (alone,) = _ascend(transfer, mode, psis[r : r + 1], cfg, rngs[r : r + 1])
        assert together.value == alone.value
        assert together.iterations == alone.iterations
        assert together.converged == alone.converged
        assert together.duality_gap == alone.duality_gap
        np.testing.assert_array_equal(together.psis, alone.psis)
        np.testing.assert_array_equal(together.probs, alone.probs)


@pytest.mark.parametrize(
    "mode,channels,dim,m,cfg",
    [
        ("mean", (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 16,
         (OptimizerConfig(restarts=3, iters=100, seed=7), 6)),
        ("mean", (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 4,
         (OptimizerConfig(restarts=3, iters=300, seed=3), 1)),
        ("min", (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 8,
         (OptimizerConfig(restarts=3, iters=100, seed=7), 5)),
        # patience beyond the budget: the sweep cap ends the run
        ("min", (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 4,
         (OptimizerConfig(restarts=3, iters=30, seed=7), 500)),
    ],
)
def test_freeze_schedule_matches_consecutive_count(monkeypatch, mode, channels, dim, m, cfg):
    # record each proposal's significance mask on a one-restart run and
    # recount it with a plain run-length counter; cfg pairs the budget with
    # the freeze patience
    cfg, patience = cfg
    masks = []
    propose = _Ascent.propose

    def recording(self, *args):
        significant = propose(self, *args)
        masks.append(bool(significant[0]))
        return significant

    monkeypatch.setattr(optimize, "_PATIENCE", patience)
    monkeypatch.setattr(_Ascent, "propose", recording)
    for r in range(cfg.restarts):
        masks.clear()
        rngs, psis = _restart_streams(cfg.seed, cfg.restarts, dim, m)
        (out,) = _ascend(_transfers(channels), mode, psis[r : r + 1], cfg, rngs[r : r + 1])
        quiet, frozen_at = 0, None
        for k, significant in enumerate(masks):
            quiet = 0 if significant else quiet + 1
            if quiet >= patience:
                frozen_at = k
                break
        if frozen_at is None:
            assert len(masks) == cfg.iters * m
            assert (out.iterations, out.converged) == (cfg.iters, False)
        else:
            assert len(masks) == frozen_at + 1, "no proposal after the freeze"
            assert (out.iterations, out.converged) == (frozen_at // m + 1, True)


@pytest.mark.parametrize(
    "mode,channels,dim,m,iters",
    [
        # long enough for gains below 1e-10 and between 1e-10 and 1e-7
        ("mean", (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 16, 1000),
        ("min", (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 8, 300),
    ],
)
def test_significance_threshold(monkeypatch, mode, channels, dim, m, iters):
    # a proposal counts toward no freeze exactly when it commits a gain of
    # at least 1e-10 bits (a rejected move gains 0)
    propose = _Ascent.propose
    gains = []

    def recording(self, *args):
        before = self.value.copy()
        significant = propose(self, *args)
        gain = self.value - before
        np.testing.assert_array_equal(significant, gain >= 1e-10)
        gains.append(gain)
        return significant

    monkeypatch.setattr(_Ascent, "propose", recording)
    cfg = OptimizerConfig(restarts=3, iters=iters, seed=7)
    rngs, psis = _restart_streams(cfg.seed, cfg.restarts, dim, m)
    _ascend(_transfers(channels), mode, psis, cfg, rngs)
    if mode == "mean":
        gains = np.concatenate(gains)
        assert np.any((gains > 0) & (gains < 1e-10)) and np.any((gains >= 1e-10) & (gains < 1e-7))


def test_incremental_caches_match_rebuild():
    # masked commits and per-sweep increments keep the caches equal to a
    # fresh evaluation of the same states and probabilities
    for mode, channels, dim, m in [
        ("mean", (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 16),
        ("min", (depolarizing(2, 0.9), depolarizing(2, 0.5), _damping(0.6)), 2, 6),
    ]:
        transfer, cfg = _transfers(channels), OptimizerConfig()
        rngs, psis = _restart_streams(5, 4, dim, m)
        ascent = _Ascent(transfer, mode, psis, np.full((4, m), 1.0 / m), cfg)
        accepted = 0
        for t in range(6):
            sweep = ascent.candidates(_moves(m, dim, 0.3 * 0.8**t, rngs))
            for j in range(m):
                before = ascent.psis[:, j].copy()
                ascent.propose(j, sweep)
                accepted += np.count_nonzero((ascent.psis[:, j] != before).any(axis=1))
            ascent.prob_step()
        assert accepted > 10
        fresh = _Ascent(transfer, mode, ascent.psis, ascent.probs, cfg)
        for name in ("outs", "entropies", "rbar", "sum_p_s", "chis", "value"):
            kept, rebuilt = getattr(ascent, name), getattr(fresh, name)
            np.testing.assert_allclose(kept, rebuilt, rtol=0, atol=1e-12, err_msg=name)


def test_monotone_in_restarts():
    ch = depolarizing(2, 0.35)
    values = [
        maximize_chi(ch, 4, OptimizerConfig(restarts=r, iters=150, seed=5)).value
        for r in (1, 2, 4, 8)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_lower_bound_soundness():
    for lam in (0.2, 0.5, 0.8):
        ch = depolarizing(2, lam)
        res = maximize_chi(ch, 4, OptimizerConfig(restarts=2, iters=200, seed=3))
        assert res.value <= math.log2(2) + 1e-9
        assert res.value <= chi_star_depolarizing(2, lam) + 1e-6


def test_seed_recorded_and_generated():
    ch = depolarizing(2, 0.5)
    res = maximize_chi(ch, 2, OptimizerConfig(restarts=1, iters=50, seed=99))
    assert res.seed == 99
    res2 = maximize_chi(ch, 2, OptimizerConfig(restarts=1, iters=50))
    assert isinstance(res2.seed, int)


def test_avg_chi_single_branch_reduces():
    per = PeriodicChannel((depolarizing(2, 0.5),))
    res = maximize_avg_chi(per, 4, FAST)
    assert res.value == pytest.approx(chi_star_depolarizing(2, 0.5), abs=1e-3)


def test_avg_chi_periodic_example():
    per = PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))
    res = maximize_avg_chi(per, 4, FAST)
    expected = 0.5 * (chi_star_depolarizing(2, 0.9) + chi_star_depolarizing(2, 0.5))
    assert res.value == pytest.approx(expected, abs=1e-3)


def test_avg_chi_identical_branches_period_independent():
    single = maximize_avg_chi(PeriodicChannel((depolarizing(2, 0.5),)), 4, FAST)
    triple = maximize_avg_chi(PeriodicChannel((depolarizing(2, 0.5),) * 3), 4, FAST)
    assert single.value == pytest.approx(triple.value, abs=1e-3)


def test_min_chi_single_branch_reduces():
    cc = ConvexCombinationChannel((depolarizing(2, 0.5),), [1.0])
    res = maximize_min_chi(cc, 4, FAST)
    assert res.value == pytest.approx(chi_star_depolarizing(2, 0.5), abs=1e-3)


@pytest.mark.parametrize("lambdas", [(0.9, 0.5), (0.2, -0.1)], ids=["0.9,0.5", "0.2,-0.1"])
def test_min_chi_two_branches(lambdas):
    cc = ConvexCombinationChannel(tuple(depolarizing(2, lam) for lam in lambdas), [0.5, 0.5])
    res = maximize_min_chi(cc, 4, FAST)
    assert res.value == pytest.approx(capacity_convex_depolarizing(2, lambdas), abs=1e-3)


def test_min_chi_degenerate_branches():
    cc = ConvexCombinationChannel((depolarizing(2, 0.5), depolarizing(2, 0.5)), [0.5, 0.5])
    res = maximize_min_chi(cc, 4, FAST)
    assert res.value == pytest.approx(chi_star_depolarizing(2, 0.5), abs=1e-3)


def test_dimension_cap():
    big = identity_channel(32)
    with pytest.raises(CapabilityError):
        maximize_chi(big, 2, FAST)
    assert "transfer" not in vars(big), "the cap is checked before the transfer matrix is built"


def test_single_member_ensemble_gives_zero():
    res = maximize_chi(depolarizing(2, 0.5), 1, OptimizerConfig(restarts=1, iters=50, seed=1))
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_additivity_gap_identity_channel():
    two = tensor_channels([depolarizing(2, 1.0)] * 2)
    gap = additivity_gap(two, 1.0, 4, FAST)
    assert gap == pytest.approx(0.0, abs=1e-3)


def test_additivity_gap_mixed_product():
    # Delta_0.9 tensor Delta_0.5 against chi*(0.9) + chi*(0.5)
    two = tensor_channels([depolarizing(2, 0.9), depolarizing(2, 0.5)])
    res = maximize_chi(two, 8, OptimizerConfig(restarts=4, iters=500, seed=11))
    expected = chi_star_depolarizing(2, 0.9) + chi_star_depolarizing(2, 0.5)
    assert res.value == pytest.approx(expected, abs=1e-2)


def _damping(g, mirrored=False):
    """Qubit amplitude damping toward |0> (toward |1> when mirrored)."""
    k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]])
    k1 = np.array([[0, np.sqrt(g)], [0, 0]])
    if mirrored:
        k0, k1 = k0[::-1, ::-1], k1[::-1, ::-1]
    return KrausChannel((k0, k1))


def _random_psis(rng, m, dim):
    psis = rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim))
    return psis / np.linalg.norm(psis, axis=1, keepdims=True)


def _partial_trace():
    """Trace over the second qubit of two, as Kraus terms I (x) <k|."""
    return KrausChannel(tuple(np.kron(np.eye(2), np.eye(2)[[k]]) for k in range(2)))


@pytest.mark.parametrize(
    "channel",
    [
        depolarizing(2, 0.5),
        depolarizing(3, -0.1),
        tensor_channels([depolarizing(2, 0.9), depolarizing(2, 0.5)]),
        mix_channels([depolarizing(2, 0.3), _damping(0.6)], [0.25, 0.75]),
        _damping(0.6),
        _partial_trace(),
    ],
    ids=["depolarizing-2", "depolarizing-3", "two-use", "mixture", "damping", "partial-trace"],
)
def test_transfer_matches_kraus_apply(channel):
    psis = _random_psis(np.random.default_rng(4), 6, channel.din)
    outs = _apply_pure(channel.transfer[None], psis)
    assert outs.shape == (6, 1, channel.dout, channel.dout)
    for psi, out in zip(psis, outs[:, 0]):
        expected = apply(channel, DensityMatrix(np.outer(psi, psi.conj()))).mat
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        channel.transfer[0, 0] = 0


@pytest.mark.parametrize(
    "mode,channels,dim,m",
    [
        ("mean", (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 16),
        ("mean", (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 4),
        ("min", (depolarizing(2, 0.2), depolarizing(2, -0.1)), 2, 4),
        # neither branch degrades the other, so the worst one changes and
        # unguarded updates would lower the minimum
        ("min", (_damping(0.6), _damping(0.6, mirrored=True)), 2, 4),
    ],
    ids=["mean-two-use", "mean-periodic", "min-0.2,-0.1", "min-damping"],
)
def test_prob_step_monotone(mode, channels, dim, m):
    cfg = OptimizerConfig()
    for seed in range(5):
        psis = _random_psis(np.random.default_rng(seed), m, dim)
        ascent = _Ascent(_transfers(channels), mode, psis[None], np.full((1, m), 1.0 / m), cfg)
        for _ in range(100):
            before = ascent.value.copy()
            ascent.prob_step()
            assert ascent.value >= before - 1e-15


@pytest.mark.parametrize(
    "mode,lambdas,prob_iters",
    [pytest.param("mean", (0.5,), n, id=str(n)) for n in (1, 3, 200)]
    + [pytest.param("min", (0.9, 0.5), n, id=f"min-{n}") for n in (1, 3, 200)],
)
def test_duality_gap_brackets_optimum(monkeypatch, mode, lambdas, prob_iters):
    # the computational basis is an optimal set of states for every
    # depolarizing branch, so over its probabilities
    # value <= closed form <= value + gap
    monkeypatch.setattr(optimize, "_PROB_ITERS", prob_iters)
    transfer = _transfers([depolarizing(2, lam) for lam in lambdas])
    psis = np.eye(2, dtype=np.complex128)[[0, 1, 0, 1]]
    cfg = OptimizerConfig()
    ascent = _Ascent(transfer, mode, psis[None], np.array([[0.55, 0.3, 0.1, 0.05]]), cfg)
    gap = ascent.prob_step(final=True)
    closed = capacity_convex_depolarizing(2, lambdas)
    assert ascent.value <= closed + 1e-12
    assert closed <= ascent.value + gap + 1e-12
    if prob_iters < 200:
        assert gap > cfg.tol
    else:
        assert gap < cfg.tol


@pytest.mark.parametrize("mode,lambdas", [("mean", (0.5,)), ("min", (0.9, 0.5))], ids=["mean", "min"])
def test_tol_is_the_final_gap_stop(mode, lambdas):
    transfer = _transfers([tensor_channels([depolarizing(2, lam)] * 2) for lam in lambdas])
    psis = _random_psis(np.random.default_rng(3), 8, 4)
    loose, tight = (
        _Ascent(transfer, mode, psis[None], np.full((1, 8), 1 / 8), OptimizerConfig(tol=tol)).prob_step(final=True)
        for tol in (1e-1, OptimizerConfig().tol)
    )
    assert tight < loose < 1e-1


@pytest.mark.parametrize("field,value", [("restarts", 0), ("iters", 0)])
def test_out_of_range_budget_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value})


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
def test_non_positive_or_non_finite_tol_rejected(tol):
    with pytest.raises(ValueError):
        OptimizerConfig(tol=tol)
