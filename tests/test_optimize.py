import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from chancap import (
    CapabilityError,
    ConvexCombinationChannel,
    DensityMatrix,
    KrausChannel,
    PeriodicChannel,
    apply,
    capacity_convex_depolarizing,
    capacity_periodic_depolarizing,
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
    periodic_branch,
    periodic_uses,
    tensor_channels,
    verify_theorem2,
)
from chancap import capacity, optimize
from chancap.optimize import (
    OptimizerConfig,
    _apply_pure,
    _Ascent,
    _ascend,
    _uniform_weights,
    _worst_branch_weights,
    random_unit_vectors,
)

# small budgets keep the unit tests quick; the acceptance suite runs the
# spec budgets
FAST = OptimizerConfig(restarts=4, iters=300, seed=7)


def test_identity_channel_capacity():
    res = maximize_chi(identity_channel(2), 2, FAST)
    assert res.value == pytest.approx(1.0, abs=1e-3)


def test_constant_channel_capacity_zero():
    res = maximize_chi(depolarizing(2, 0.0), 2, FAST)
    assert res.value == pytest.approx(0.0, abs=1e-6)


def test_first_of_tied_restarts_is_reported():
    # every output of the constant channel is I/2, so every restart stops at
    # once with value exactly 0, and the report is restart 0's ensemble
    ch = depolarizing(2, 0.0)
    starts = _starts(FAST.seed, FAST.restarts, 2, 2)
    out = _ascend(_transfers([ch]), _uniform_weights, starts, FAST.iters)
    assert np.unique(out["value"]).size == 1 and (out["iterations"] == 0).all()
    res = maximize_chi(ch, 2, FAST)
    np.testing.assert_array_equal(res.ensemble.probs, [0.5, 0.5])
    for state, psi in zip(res.ensemble.states, starts[0], strict=True):
        np.testing.assert_array_equal(state.mat, np.outer(psi, psi.conj()))


def test_depolarizing_recovers_closed_form():
    res = maximize_chi(depolarizing(2, 0.5), 4, FAST)
    assert res.value == pytest.approx(chi_star_depolarizing(2, 0.5), abs=1e-3)


def test_value_reproducible_from_ensemble():
    ch = depolarizing(2, 0.6)
    res = maximize_chi(ch, 4, FAST)
    assert abs(chi(ch, res.ensemble) - res.value) <= 1e-9


def test_disagreeing_kraus_value_raises(monkeypatch):
    chi = optimize.holevo.chi
    monkeypatch.setattr(optimize.holevo, "chi", lambda ch, ens: chi(ch, ens) + 1e-6)
    with pytest.raises(ArithmeticError, match="the Kraus form gives .* the ascent gave"):
        maximize_chi(depolarizing(2, 0.6), 4, FAST)


@pytest.mark.parametrize("m", [2.0, True, "2", None, np.int64(2)], ids=repr)
def test_m_must_be_an_integer(monkeypatch, m):
    # checked before any start state is drawn
    def fail(*args, **kwargs):
        raise AssertionError("start states drawn before the m check")

    monkeypatch.setattr(optimize, "random_unit_vectors", fail)
    if isinstance(m, np.integer) or m is None:
        with pytest.raises(AssertionError, match="start states drawn"):
            maximize_chi(depolarizing(2, 0.6), m, FAST)
    else:
        with pytest.raises(TypeError, match=re.escape(f"m must be an integer, got {m!r}")):
            maximize_chi(depolarizing(2, 0.6), m, FAST)


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

    def ascend(transfer, rule, psis, iters):
        starts.append(psis)
        return _ascend(transfer, rule, psis, iters)

    monkeypatch.setattr(optimize, "_ascend", ascend)
    maximize_chi(depolarizing(2, 0.5), 4, OptimizerConfig(restarts=4, iters=1, seed=0))
    (psis,) = starts
    assert psis.shape == (4, 4, 2)
    # a basis vector, up to phase, has one amplitude of modulus 1
    assert np.abs(psis).max() < 1 - 1e-6


def _transfers(channels):
    """The (branches, dout^2, din^2) array the optimizer takes."""
    return np.stack([ch.transfer for ch in channels])


def _starts(seed, restarts, dim, m):
    """Per-restart start states, drawn as _maximize draws them."""
    children = np.random.SeedSequence(seed).spawn(restarts)
    return np.stack([random_unit_vectors(dim, m, np.random.Generator(np.random.PCG64(c))) for c in children])


def test_weight_rules():
    # the worst-branch rule is one-hot on the least chi, the lowest index of
    # ties; the uniform rule weighs every branch alike
    np.testing.assert_array_equal(_worst_branch_weights(np.array([[0.2, 0.2, 0.5], [0.4, 0.1, 0.1]])),
                                  np.eye(3)[[0, 1]])
    for branches in (1, 2, 3):
        weights = _uniform_weights(np.arange(2.0 * branches).reshape(2, branches))
        assert weights.shape == (2, branches) and (weights == weights[0, 0]).all()
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("rule", ["min", "mean", None])
def test_search_takes_only_a_rule(rule):
    # a mode name or None in place of a weight rule fails at the first
    # evaluation, and no objective is formed
    with pytest.raises(TypeError, match="not callable"):
        _ascend(_transfers([depolarizing(2, 0.9), depolarizing(2, 0.5)]), rule, _starts(7, 1, 2, 4), 1)


_LOCKSTEP_CASES = [
    (_uniform_weights, (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 8, (5, None)),
    (_uniform_weights, (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 4, (5, None)),
    (_worst_branch_weights, (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 4, (5, None)),
    # output dimension 9: the sums over an output take numpy's pairwise
    # path, which sums in blocks of 8
    (_uniform_weights, (tensor_channels([depolarizing(3, 0.5)] * 2),), 9, 4, (4, None)),
    # chunks of two restarts, so the five span three chunks
    (_uniform_weights, (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 16, (5, 2)),
    # three flat branches: the worst one changes along the search
    (_worst_branch_weights, tuple(tensor_channels([depolarizing(2, lam)] * 2) for lam in (0.3, 0.8, -0.1)),
     4, 16, (5, None)),
]


def _rule_id(value):
    """The test ids "mean" and "min" for the two weight rules, pytest's own otherwise."""
    return "mean" if value is _uniform_weights else "min" if value is _worst_branch_weights else None


@pytest.mark.parametrize("rule,channels,dim,m,cfg", _LOCKSTEP_CASES, ids=_rule_id)
def test_batching_independence(monkeypatch, rule, channels, dim, m, cfg):
    # each restart run inside the batch, while the others stop before or
    # after it, must end exactly where it ends alone; cfg pairs the restart
    # count with the restarts per chunk (None: all in one)
    restarts, chunk = cfg
    transfer = _transfers(channels)
    psis = _starts(7, restarts, dim, m)
    if chunk:
        per_restart = 16 * m * (transfer.shape[0] * transfer.shape[1] + 2 * optimize._MEMORY * dim)
        monkeypatch.setattr(optimize, "_CHUNK_BYTES", chunk * per_restart)
    batches = []
    init = _Ascent.__init__

    def recording(self, transfer, rule, psis):
        batches.append(len(psis))
        init(self, transfer, rule, psis)

    monkeypatch.setattr(_Ascent, "__init__", recording)
    iters = 2000
    batched = _ascend(transfer, rule, psis, iters)
    assert batches == ([chunk] * (restarts // chunk) + [restarts % chunk] if chunk else [restarts])
    assert np.unique(batched["iterations"]).size > 1, "restarts should stop at different iterations"
    assert batched["converged"].all() and (batched["duality_gap"] < optimize._FINAL_GAP).all()
    for r in range(restarts):
        alone = _ascend(transfer, rule, psis[r : r + 1], iters)
        for name, x in alone.items():
            np.testing.assert_array_equal(batched[name][r], x[0], err_msg=name)


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


@pytest.mark.parametrize("seed", [0, 7])
def test_two_use_periodic_channel_stays_below_theorem1_bound(seed):
    # two uses of the periodic channel itself, the phase average of the
    # branch products, not the branch average that verify theorem1 searches:
    # 0.3926749 bits per use, and Theorem 1's 2C is 0.117 above it
    per = PeriodicChannel((depolarizing(2, 0.9), depolarizing(2, 0.5)))
    res = maximize_chi(periodic_uses(per, 2), cfg=OptimizerConfig(restarts=8, iters=300, seed=seed))
    assert res.converged
    assert res.value / 2 == pytest.approx(0.3926749, abs=1e-6)
    assert 2 * capacity_periodic_depolarizing(2, [0.9, 0.5]) - res.value >= 0.1


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
    with pytest.raises(CapabilityError, match="^input dimension 32 exceeds the desk-scale cap 16$"):
        maximize_chi(big, 2, FAST)
    assert "transfer" not in vars(big), "the cap is checked before the transfer matrix is built"


def test_single_member_ensemble_gives_zero():
    res = maximize_chi(depolarizing(2, 0.5), 1, OptimizerConfig(restarts=1, iters=50, seed=1))
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_additivity_gap_identity_channel():
    two = tensor_channels([depolarizing(2, 1.0)] * 2)
    gap = maximize_chi(two, 4, FAST).value - 2.0 * 1.0
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
    psis = random_unit_vectors(channel.din, 6, np.random.default_rng(4))
    outs = _apply_pure(channel.transfer[None], psis)
    assert outs.shape == (6, 1, channel.dout, channel.dout)
    for psi, out in zip(psis, outs[:, 0]):
        expected = apply(channel, DensityMatrix(np.outer(psi, psi.conj()))).mat
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        channel.transfer[0, 0] = 0


@pytest.mark.parametrize(
    "rule,channels,dim,m",
    [
        (_uniform_weights, (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 16),
        (_uniform_weights, (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 4),
        (_worst_branch_weights, (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 4),
        (_worst_branch_weights, (depolarizing(2, 0.2), depolarizing(2, -0.1)), 2, 4),
        # neither branch degrades the other, so the worst one changes
        (_uniform_weights, (_damping(0.6), _damping(0.6, mirrored=True)), 2, 4),
        (_worst_branch_weights, (_damping(0.6), _damping(0.6, mirrored=True)), 2, 4),
        # rank-deficient outputs, whose logs take the eigenvalue floor
        (_uniform_weights, (identity_channel(2),), 2, 4),
        (_uniform_weights, (_damping(0.6),), 2, 4),
        (_uniform_weights, (_damping(0.999),), 2, 4),
    ],
    ids=["mean-two-use", "mean-periodic", "min-0.9,0.5", "min-0.2,-0.1", "mean-damping",
         "min-damping", "identity", "damping-0.6", "damping-0.999"],
)
def test_iteration_monotone(monkeypatch, rule, channels, dim, m):
    # at no iteration does a restart's value fall, a restart that rejects
    # the iteration keeps its ensemble, and nothing turns NaN
    step = _Ascent.step
    kept = []

    def checked(self):
        before = {name: getattr(self, name).copy() for name in _Ascent._EVALUATED}
        keep = step(self)
        assert np.all(self.value >= before["value"])
        for name, old in before.items():
            np.testing.assert_array_equal(getattr(self, name)[~keep], old[~keep])
        for name in _Ascent._PER_RESTART:
            assert np.isfinite(getattr(self, name)).all(), name
        kept.append(keep)
        return keep

    monkeypatch.setattr(_Ascent, "step", checked)
    # starts from which every case rejects some iteration
    out = _ascend(_transfers(channels), rule, _starts(23, 3, dim, m), 300)
    kept = np.concatenate(kept)
    assert kept.any() and not kept.all()
    assert np.isfinite(out["value"]).all() and np.isfinite(out["duality_gap"]).all()


@pytest.mark.parametrize(
    "rule,channels,dim,m",
    [
        (_uniform_weights, (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 16),
        (_worst_branch_weights, (_damping(0.6), _damping(0.6, mirrored=True)), 2, 4),
    ],
    ids=["mean-two-use", "min-damping"],
)
def test_ascend_leaves_start_states_unwritten(monkeypatch, rule, channels, dim, m):
    # the batch holds the start states it is given, uncopied, so neither a
    # kept nor a rejected iteration may write into them
    step = _Ascent.step
    kept = []
    monkeypatch.setattr(_Ascent, "step", lambda self: kept.append(step(self)) or kept[-1])
    psis = _starts(23, 3, dim, m)
    before = psis.tobytes()
    _ascend(_transfers(channels), rule, psis, 300)
    assert psis.tobytes() == before
    kept = np.concatenate(kept)
    assert kept.any() and not kept.all()


def _filled(ascent):
    """The mask (R, _MEMORY) of curvature-pair slots with <s, y> > 0, the
    slots that hold a pair."""
    return optimize._dot(ascent.s, ascent.y) > 0


@pytest.mark.parametrize(
    "rule,channels,dim,m",
    [
        (_uniform_weights, (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 16),
        (_worst_branch_weights, (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 4),
        (_worst_branch_weights, (_damping(0.6), _damping(0.6, mirrored=True)), 2, 4),
    ],
    ids=["mean-two-use", "min-0.9,0.5", "min-damping"],
)
def test_curvature_pairs_and_step_schedule(monkeypatch, rule, channels, dim, m):
    # a kept iteration with <s, y> > 0 appends the pair (change of Phi,
    # fall of its tangent gradient) and drops the oldest one; any other
    # iteration leaves the pairs as they were.  eta grows 1.5x toward 1 on a
    # kept iteration and halves on a rejected one, and a kept step moves Phi
    # to normalize(Phi + eta direction), whose members give unit states and
    # probabilities summing to 1
    step = _Ascent.step
    kept, stored = [], []

    def checked(self):
        before = {name: getattr(self, name).copy() for name in ("phis", "grad", "eta", "s", "y")}
        direction = self.direction()
        keep = step(self)
        s = (self.phis - before["phis"]).view(np.float64)
        y = (before["grad"] - self.grad).reshape(len(keep), -1).view(np.float64)
        sy = (s * y).sum(axis=1)
        new = keep & (sy > 0)
        for r in range(len(keep)):
            if new[r]:
                np.testing.assert_array_equal(self.s[r, :-1], before["s"][r, 1:])
                np.testing.assert_array_equal(self.y[r, :-1], before["y"][r, 1:])
                np.testing.assert_allclose(self.s[r, -1], s[r], rtol=0, atol=1e-15)
                np.testing.assert_allclose(self.y[r, -1], y[r], rtol=0, atol=1e-15)
            else:
                for name in ("s", "y"):
                    np.testing.assert_array_equal(getattr(self, name)[r], before[name][r])
        # a slot is filled, with a nonzero pair, exactly when its <s, y> > 0
        np.testing.assert_array_equal(_filled(self), self.s.any(axis=2))
        np.testing.assert_array_equal(_filled(self), self.y.any(axis=2))
        np.testing.assert_array_equal(self.eta, np.where(keep, np.minimum(1.0, 1.5 * before["eta"]),
                                                         0.5 * before["eta"]))
        v = before["phis"] + before["eta"][:, None] * direction
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        np.testing.assert_allclose(self.phis[keep], v[keep], rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(self.psis, axis=-1), 1.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(self.probs.sum(axis=1), 1.0, rtol=0, atol=1e-14)
        kept.append(keep)
        stored.append(_filled(self).sum(axis=1))
        return keep

    monkeypatch.setattr(_Ascent, "step", checked)
    _ascend(_transfers(channels), rule, _starts(23, 3, dim, m), 300)
    kept = np.concatenate(kept)
    assert kept.any() and not kept.all()
    assert max(n.max() for n in stored) == optimize._MEMORY, "some restart should fill its memory"


def _two_loop(grad, s, y, phis):
    """One restart's direction from its tangent gradient, its pair slots
    (oldest first) and Phi, written out as in Nocedal & Wright, Algorithm
    7.4: the slots with <s, y> > 0, rho = 1 / <s, y>, the newest pair's
    scale, and the result projected off Phi."""
    q = grad.view(np.float64).copy()
    pairs = [(si, yi, 1 / (si @ yi)) for si, yi in zip(s, y) if si @ yi > 0]
    alphas = []
    for si, yi, rho in reversed(pairs):
        alphas.insert(0, rho * (si @ q))
        q -= alphas[0] * yi
    if pairs:
        si, yi, _ = pairs[-1]
        q *= (si @ yi) / (yi @ yi)
    for (si, yi, rho), alpha in zip(pairs, alphas):
        q += (alpha - rho * (yi @ q)) * si
    d = q.view(np.complex128)
    return d - np.vdot(phis, d) * phis


def test_direction_without_pairs_is_the_tangent_gradient():
    transfer = _transfers([tensor_channels([depolarizing(2, 0.5)] * 2)])
    ascent = _Ascent(transfer, _uniform_weights, _starts(5, 4, 4, 16))
    assert not ascent.s.any() and not ascent.y.any() and not _filled(ascent).any()
    np.testing.assert_allclose(ascent.direction(), ascent.grad, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "rule,channels,dim,m",
    [
        (_uniform_weights, (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 16),
        (_worst_branch_weights, (depolarizing(2, 0.9), depolarizing(2, 0.5), _damping(0.6)), 2, 6),
    ],
    ids=["mean-two-use", "min-three-branch"],
)
def test_directions_are_tangent(monkeypatch, rule, channels, dim, m):
    # the tangent gradient and the quasi-Newton direction have no component
    # along Phi, the whole ensemble as one unit vector, and the direction is
    # the textbook two-loop recursion over the pairs held, rho = 1 / <s, y>
    direction = _Ascent.direction
    seen = []

    def checked(self):
        d = direction(self)
        assert np.abs((self.phis.conj() * d).sum(axis=1)).max() <= 1e-14
        assert np.abs((self.phis.conj() * self.grad).sum(axis=1)).max() <= 1e-14
        for r in range(len(d)):
            ref = _two_loop(self.grad[r], self.s[r], self.y[r], self.phis[r])
            np.testing.assert_allclose(d[r], ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        seen.append(_filled(self).any())
        return d

    monkeypatch.setattr(_Ascent, "direction", checked)
    _ascend(_transfers(channels), rule, _starts(3, 3, dim, m), 300)
    assert any(seen), "some direction should use curvature pairs"


@pytest.mark.parametrize(
    "lambdas,gammas,cfg,slowest",
    [
        ([0.9, 0.5], [0.3, 0.7], OptimizerConfig(4, 300, 0), 55),
        ([0.3, 0.8, -0.1], [0.2, 0.3, 0.5], OptimizerConfig(32, 2000, 7), 110),
    ],
    ids=["maximin", "flat-three-branch"],
)
def test_quasi_newton_converges(monkeypatch, lambdas, gammas, cfg, slowest):
    # every restart of both theorem2 searches converges, the slowest two-use
    # one within `slowest` iterations: perfbench's maximin op, and three
    # flat branches whose worst one changes along the search
    runs = []

    def ascend(*args):
        out = _ascend(*args)
        runs.append(out)
        return out

    monkeypatch.setattr(optimize, "_ascend", ascend)
    rep = verify_theorem2(2, lambdas, gammas, None, cfg)
    assert rep.passed and rep.extras["converged"]
    one_use, two_use = runs
    assert one_use["converged"].all() and two_use["converged"].all()
    assert two_use["iterations"].max() <= slowest


_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


def _pauli_channel(weights):
    """The qubit channel rho -> sum_k weights[k] sigma_k rho sigma_k."""
    return KrausChannel(tuple(math.sqrt(w) * sigma for w, sigma in zip(weights, _PAULIS)))


@pytest.mark.parametrize("mu", [0.05, 0.15])
def test_memory_channel_restarts_converge(monkeypatch, mu):
    # the two-use qubit Pauli channel with memory (Macchiavello & Palma, PRA
    # 65:050301, 2002): mixtures of optimal product bases are optimal too, so
    # the optimum is not isolated, and a separate multiplicative update of
    # the probabilities creeps there (0 and 8 of 32 restarts converged)
    weights = [0.5, 1 / 6, 1 / 6, 1 / 6]
    correlated = KrausChannel(tuple(math.sqrt(w) * np.kron(s, s) for w, s in zip(weights, _PAULIS)))
    channel = mix_channels([tensor_channels([depolarizing(2, 1 / 3)] * 2), correlated], [1 - mu, mu])
    runs = []

    def ascend(*args):
        runs.append(_ascend(*args))
        return runs[-1]

    monkeypatch.setattr(optimize, "_ascend", ascend)
    assert maximize_chi(channel, cfg=OptimizerConfig(seed=7)).converged
    assert runs[0]["converged"].sum() >= 30


def test_pauli_periodic_two_use_search_converges():
    # a probe, not a verify check: Pauli branches diag(0.8, 0.1, 0.1) and
    # diag(0.1, 0.1, 0.8) of the Bloch vector, whose optimal ensembles
    # differ; the shared-ensemble two-use optimum is taken as twice the
    # one-use value C = 0.2691149762, measured on a 4001 x 801 grid of
    # Bloch directions
    per = PeriodicChannel((_pauli_channel([0.5, 0.4, 0.05, 0.05]), _pauli_channel([0.5, 0.05, 0.05, 0.4])))
    pairs = PeriodicChannel(tuple(periodic_branch(per, i, 2) for i in range(per.period)))
    res = maximize_avg_chi(pairs, cfg=OptimizerConfig(seed=7))
    assert res.converged
    assert res.value == pytest.approx(2 * 0.2691149762, abs=1e-9)


@pytest.mark.parametrize("channels", [(depolarizing(2, 0.5),), (depolarizing(2, 0.9), _damping(0.6))],
                         ids=["one-branch", "two-branch"])
def test_one_eigensolve_per_evaluation(monkeypatch, channels):
    # the 4 member outputs and the average of each branch, for all 3
    # restarts, are decomposed in one call, at the start and at each
    # iteration alike
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    ascent = _Ascent(_transfers(channels), _uniform_weights, _starts(5, 3, 2, 4))
    ascent._evaluate(ascent.psis.copy(), ascent.probs.copy())
    ascent.step()
    assert calls == [(3, 5, len(channels), 2, 2)] * 3


def test_incremental_caches_match_rebuild():
    # after kept and rejected iterations alike, the cached values, Phi, its
    # tangent gradients and the gaps equal a fresh evaluation of the states
    # and probabilities read off Phi
    for rule, channels, dim, m in [
        (_uniform_weights, (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 16),
        (_worst_branch_weights, (depolarizing(2, 0.9), depolarizing(2, 0.5), _damping(0.6)), 2, 6),
    ]:
        ascent = _Ascent(_transfers(channels), rule, _starts(5, 4, dim, m))
        kept = []
        for eta in (0.3, 3.0, 30.0, 0.1, 10.0, 1.0):
            ascent.eta = np.full(4, eta)
            kept.append(ascent.step())
            fresh = ascent._evaluate(ascent.psis.copy(), ascent.probs.copy())
            for name, x in zip(_Ascent._EVALUATED, fresh, strict=True):
                np.testing.assert_array_equal(x, getattr(ascent, name), err_msg=name)
        kept = np.array(kept)
        assert kept.any() and not kept.all()


@pytest.mark.parametrize(
    "rule,lambdas,iters",
    [pytest.param(_uniform_weights, (0.5,), n, id=str(n)) for n in (1, 3, 200)]
    + [pytest.param(_worst_branch_weights, (0.9, 0.5), n, id=f"min-{n}") for n in (1, 3, 200)],
)
def test_duality_gap_brackets_optimum(rule, lambdas, iters):
    # the computational basis is an optimal set of states for every
    # depolarizing branch, so it does not move, and over its probabilities,
    # 3/4 and 1/4 at the start, value <= closed form <= value + gap at every
    # iteration; the gap closes
    transfer = _transfers([depolarizing(2, lam) for lam in lambdas])
    psis = np.eye(2, dtype=np.complex128)[[0, 1, 0, 0]]
    ascent = _Ascent(transfer, rule, psis[None])
    closed = capacity_convex_depolarizing(2, lambdas)
    for t in range(iters + 1):
        assert ascent.value <= closed + 1e-12
        assert closed <= ascent.value + ascent.gap + 1e-12
        if t < iters:
            ascent.step()
    np.testing.assert_array_equal(ascent.psis[0], psis)
    if iters < 200:
        assert ascent.gap > optimize._FINAL_GAP
    else:
        assert ascent.gap < optimize._FINAL_GAP


@pytest.mark.parametrize("rule,lambdas", [(_uniform_weights, (0.5,)), (_worst_branch_weights, (0.9, 0.5))],
                         ids=["mean", "min"])
def test_tol_is_the_final_gap_stop(monkeypatch, rule, lambdas):
    # a restart stops before the cap, converged, only once its gap is below
    # _FINAL_GAP and its tangent gradient below _GRAD_DONE; with either
    # bound at 0, every restart runs to the cap
    transfer = _transfers([tensor_channels([depolarizing(2, lam)] * 2) for lam in lambdas])
    psis = _starts(3, 3, 4, 8)
    out = _ascend(transfer, rule, psis, 1000)
    assert out["converged"].all() and (out["iterations"] < 1000).all()
    assert (out["duality_gap"] < optimize._FINAL_GAP).all()
    for bound in ("_FINAL_GAP", "_GRAD_DONE"):
        with monkeypatch.context() as patch:
            patch.setattr(optimize, bound, 0.0)
            out = _ascend(transfer, rule, psis, 1000)
            assert not out["converged"].any() and (out["iterations"] == 1000).all(), bound


def test_constant_channel_stops_at_once():
    # every output is I/2, so the gradient is 0 up to round-off and so is
    # the gap: each restart stops, converged, at its start states
    transfer = _transfers([depolarizing(2, 0.0)])
    psis = _starts(0, 4, 2, 4)
    assert np.abs(_Ascent(transfer, _uniform_weights, psis).grad).max() < 1e-15
    out = _ascend(transfer, _uniform_weights, psis, 300)
    assert out["converged"].all() and (out["iterations"] == 0).all()
    np.testing.assert_array_equal(out["psis"], psis)


@pytest.mark.parametrize(
    "rule,channels,dim,m",
    [
        (_uniform_weights, (tensor_channels([depolarizing(2, 0.5)] * 2),), 4, 16),
        (_worst_branch_weights, (depolarizing(2, 0.9), depolarizing(2, 0.5)), 2, 4),
        (_worst_branch_weights, (tensor_channels([depolarizing(2, 0.9)] * 2), tensor_channels([depolarizing(2, 0.5)] * 2)),
         4, 16),
        (_uniform_weights, (_damping(0.6), _damping(0.6, mirrored=True)), 2, 4),
    ],
    ids=["mean-two-use", "min-0.9,0.5", "min-two-use", "mean-damping"],
)
def test_converged_restarts_are_stationary(rule, channels, dim, m):
    # a converged restart has Phi's tangent gradient below _GRAD_DONE in
    # norm and a gap below _FINAL_GAP, at the states and probabilities it
    # returns
    transfer = _transfers(channels)
    out = _ascend(transfer, rule, _starts(2, 4, dim, m), 2000)
    assert out["converged"].all()
    ascent = _Ascent(transfer, rule, out["psis"][:1])
    for psis, probs, value, duality_gap in zip(out["psis"], out["probs"], out["value"], out["duality_gap"]):
        state = dict(zip(_Ascent._EVALUATED, ascent._evaluate(psis[None], probs[None])))
        assert np.linalg.norm(state["grad"][0]) < optimize._GRAD_DONE
        assert state["gap"][0] == duality_gap < optimize._FINAL_GAP
        assert state["value"][0] == value


@pytest.mark.parametrize("field,value", [("restarts", 0), ("iters", 0), ("seed", -1)])
def test_out_of_range_budget_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value})


def test_config_fields_are_the_budget():
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["restarts", "iters", "seed"]



@pytest.mark.parametrize(
    "field,value",
    [("iters", 2.5), ("restarts", 2.0), ("seed", 1.5), ("restarts", True), ("iters", True), ("seed", False)],
)
def test_non_integer_budget_rejected(field, value):
    # a float fails later inside the search, and True would run one restart
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        OptimizerConfig(**{field: value})


def test_numpy_integer_budget_accepted():
    cfg = OptimizerConfig(restarts=np.int64(2), iters=np.int32(3), seed=np.uint8(4))
    assert (cfg.restarts, cfg.iters, cfg.seed) == (2, 3, 4)
    assert [type(x) for x in (cfg.restarts, cfg.iters, cfg.seed)] == [int, int, int]


def test_report_of_a_numpy_integer_budget_serialises():
    # the budget's numpy integers would reach the report, which json cannot write
    cfg = OptimizerConfig(restarts=np.int64(2), iters=5, seed=np.uint8(4))
    results = capacity.verify_additivity(2, 0.5, None, cfg).results_dict()
    assert json.loads(json.dumps(results)) == results
    assert (type(results["restarts"]), type(results["opt_seed"])) == (int, int)


def test_verify_output_independent_of_blas_threads():
    # the average outputs sum their members, and G_j its branches, in a
    # fixed order: as one BLAS product either sum, and with it the value and
    # the duality gap, moved in the last digits with the thread count at
    # d = 3; theorem2 runs the worst-branch (maximin) search
    src = os.path.dirname(os.path.dirname(os.path.abspath(optimize.__file__)))
    for search in (["additivity", "--lambda", "0.5"], ["theorem1", "--lambdas", "0.9,0.5"],
                   ["theorem2", "--lambdas", "0.9,0.5"]):
        argv = [sys.executable, "-m", "chancap", "verify", *search, "--d", "3",
                "--restarts", "8", "--iters", "30", "--seed", "7"]
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode in (0, 1), proc.stderr
            runs.append((proc.returncode, proc.stdout))
        assert runs[0] == runs[1], search
