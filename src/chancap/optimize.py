"""Multi-start alternating ascent over input ensembles.

Independent numerical maximization of Holevo-quantity objectives: the check
against every closed form, and the probe for any gain from entangled inputs.
States move by random local perturbations with a decaying step, accepting
improvements only.  Between sweeps the probabilities take a step of their own
(the objective is concave in them): the Blahut-Arimoto update of the
classical-quantum channel j -> sigma_j, p_j <- p_j 2^{D(sigma_j || sigma_bar)},
normalized.  For the Holevo quantity and its branch average ("mean" mode) the
divergence is averaged over the branches and every update is kept; for the
branch minimum ("min" mode, maximin) it is the worst branch's, and a restart
keeps an update only if its minimum strictly improves.  One update per sweep,
warm-started from the previous sweep; after the last sweep it repeats until
the duality gap max_j D(sigma_j || sigma_bar) - chi, an upper bound on what
any reweighting of the final states could add, falls below `tol`, a min-mode
update is rejected, or 200 updates have run.

All restarts of one search run in lockstep as one numpy batch.  At the start
of a sweep every live restart draws its m moves, and their candidate states,
channel outputs (one product with the branches' transfer matrices), output
entropies and weighted entropy increments p_j (S(out') - S(out_j)) are
computed in one batch: member j's state, output and probability change only
at its own proposal or between sweeps, so computing ahead changes nothing.
Each proposal then needs one batched eigensolve of the updated average
outputs, and each restart accepts its move, by masked in-place copies, only
if its own objective improves.  A restart freezes once 200 proposals in a
row have each gained less than 1e-10: it leaves the batch and its unused
moves, and rejoins the others only for the final probability step.

The pseudo-random source is numpy's PCG64; restart r draws from the r-th
child of SeedSequence(seed) alone, so runs are reproducible and each
restart's outcome depends neither on the restart count nor on batching.
Every restart starts from m random pure states, none at a known optimum;
then, at the start of each sweep, it draws its m step sizes in one call and
their Gaussian noise in one more.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import holevo
from .channels import MAX_PRODUCT_DIM, ConvexCombinationChannel, KrausChannel, PeriodicChannel
from .errors import CapabilityError
from .holevo import Ensemble
from .states import DensityMatrix

_EIG_FLOOR = 1e-30  # keeps log2 of the average output finite in gradients
# proposal step envelope at sweep t: max(_STEP_MIN, _STEP0 * _STEP_DECAY**t)
_STEP0 = 0.5
_STEP_DECAY = 0.9935
_STEP_MIN = 1e-6
_MIN_IMPROVEMENT = 1e-10  # a proposal gaining less counts toward a freeze
_PATIENCE = 200  # proposals in a row below _MIN_IMPROVEMENT that freeze a restart
_PROB_ITERS = 200  # cap on the final Blahut-Arimoto updates


@dataclass(frozen=True)
class OptimizerConfig:
    """The search budget, one field per `verify` flag; defaults hit the
    package's verification tolerances in minutes at desk scale.

    The `restarts` run in lockstep, one sweep of `m` proposals at a time, for
    at most `iters` sweeps; a restart freezes once _PATIENCE proposals in a
    row have gained almost nothing.  `seed` picks the pseudo-random streams
    (None draws one per run, see `seeded`).

    `tol` is the duality-gap stop (bits) of the Blahut-Arimoto probability
    step run after the last sweep; that step also stops after _PROB_ITERS
    updates.
    """

    restarts: int = 32
    iters: int = 2000
    seed: int | None = None
    tol: float = 1e-6

    def __post_init__(self):
        if self.restarts < 1 or self.iters < 1:
            raise ValueError("restarts and iters must be positive")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")

    def seeded(self) -> OptimizerConfig:
        """This budget with a seed: its own, or a freshly drawn one."""
        if self.seed is not None:
            return self
        return replace(self, seed=int(np.random.SeedSequence().entropy))


@dataclass(frozen=True)
class OptResult:
    """Best value found over all restarts, the ensemble achieving it, and
    the best restart's diagnostics.

    `converged` says whether that restart froze before the sweep cap, and
    `seed` is the seed the run drew from (the generated one when the config
    gave none).  `duality_gap` is its final Blahut-Arimoto gap in bits: no
    reweighting of its states raises the value by more.  In min mode it is
    the worst branch's gap, which bounds the branch minimum as well."""

    value: float
    ensemble: Ensemble
    converged: bool
    seed: int
    duality_gap: float


@dataclass(frozen=True)
class _RestartOutcome:
    value: float
    psis: np.ndarray
    probs: np.ndarray
    iterations: int
    converged: bool
    duality_gap: float


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, broadcast over the rest; each is
    one BLAS dot, so a row's result does not depend on the batch."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _entropies(mats: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of a stack (..., d, d) of Hermitian
    PSD matrices; round-off negatives in a spectrum contribute 0."""
    w = np.linalg.eigvalsh(mats)
    return -(w * np.log2(w, out=np.zeros(w.shape), where=w > 0)).sum(axis=-1)


def _apply_pure(transfer: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Outputs (..., branches, dout, dout) of every branch of a (branches,
    dout^2, din^2) stack of transfer matrices for a stack (..., din) of pure
    inputs: one matrix product with the rows vec(psi psi^dag)."""
    branches, dd, _ = transfer.shape
    dout, din = math.isqrt(dd), psis.shape[-1]
    vecs = (psis[..., :, None] * psis[..., None, :].conj()).reshape(-1, din * din)
    # with two OpenBLAS threads this operand order peaks ~16 MB lower than
    # vecs @ S^T (d = 4 two-use search, 32 restarts, 2 cores)
    out = (transfer.reshape(branches * dd, din * din) @ vecs.T).T
    return out.reshape(psis.shape[:-1] + (branches, dout, dout))


class _Ascent:
    """Incremental evaluation state for a batch of restarts.

    The branches come as one (branches, dout^2, din^2) stack of transfer
    matrices, and arrays carry a leading restart axis.  Per restart, branch
    i and member j it caches the channel output outs[:, i, j] and its
    entropy, and per branch the probability-weighted average output and the
    weighted member entropies, which a proposal moves by its increments, so
    it costs one eigensolve per branch instead of m+1.  The helpers taking
    `rows` act on those restarts only.
    """

    _PER_RESTART = ("psis", "outs", "entropies", "probs", "rbar", "sum_p_s", "chis", "value")

    def __init__(self, transfer: np.ndarray, mode: str, psis, probs, cfg):
        self.transfer = transfer
        self.mode = mode
        self.cfg = cfg
        self.psis = np.array(psis, dtype=np.complex128)  # (R, m, din)
        restarts, self.m, _ = self.psis.shape
        self.nb = len(transfer)
        self.outs = np.ascontiguousarray(_apply_pure(transfer, self.psis).swapaxes(1, 2))
        self.entropies = _entropies(self.outs)  # (R, nb, m)
        self.probs = np.empty((restarts, self.m))
        self.rbar = np.empty((restarts, self.nb) + self.outs.shape[-2:], dtype=np.complex128)
        self.sum_p_s = np.empty((restarts, self.nb))
        self.chis = np.empty((restarts, self.nb))
        self.value = np.empty(restarts)
        self._commit_probs(np.arange(restarts), np.asarray(probs, dtype=np.float64))

    def split(self, leave: np.ndarray) -> _Ascent:
        """Move the restarts selected by the boolean mask `leave` out of this
        batch into a new one, which is returned."""
        out = copy.copy(self)
        for name in self._PER_RESTART:
            rows = getattr(self, name)
            setattr(out, name, rows[leave])
            setattr(self, name, rows[~leave])
        return out

    def join(self, other: _Ascent):
        """Append the restarts of batch `other` to this one."""
        for name in self._PER_RESTART:
            setattr(self, name, np.concatenate([getattr(self, name), getattr(other, name)]))

    def _combine(self, chis: np.ndarray) -> np.ndarray:
        if self.mode == "min":
            return chis.min(axis=-1)
        return chis.sum(axis=-1) / self.nb  # the bits of np.mean

    def _averages(self, probs: np.ndarray, outs: np.ndarray) -> np.ndarray:
        """sum_j probs[..., j] outs[..., i, j] for every branch i."""
        flat = outs.reshape(outs.shape[:-2] + (-1,))
        avg = probs[..., None, None, :] @ flat
        return avg.reshape(outs.shape[:-3] + outs.shape[-2:])

    def _commit_probs(self, rows: np.ndarray, probs: np.ndarray, guard: bool = False) -> np.ndarray:
        """Set the probabilities of `rows` to `probs`; with `guard`, only for
        the restarts whose objective strictly improves.  Returns the mask of
        `rows` committed."""
        rbar = self._averages(probs, self.outs[rows])
        sum_p_s = _dot(probs[:, None, :], self.entropies[rows])
        chis = _entropies(rbar) - sum_p_s
        value = self._combine(chis)
        keep = value > self.value[rows] if guard else np.ones(rows.size, dtype=bool)
        rows = rows[keep]
        self.probs[rows] = probs[keep]
        self.rbar[rows] = rbar[keep]
        self.sum_p_s[rows] = sum_p_s[keep]
        self.chis[rows] = chis[keep]
        self.value[rows] = value[keep]
        return keep

    def _gradient(self, rows: np.ndarray) -> np.ndarray:
        """Supergradient of each restart's objective in its probabilities
        (up to a uniform component, which the normalized update ignores),
        shape (len(rows), m).  In mean mode entry j is the branch average of
        D(sigma_ij || sigma_bar_i), so value = probs @ gradient; in min mode
        it is that of the worst branch alone."""
        if self.mode == "min":
            worst = np.argmin(self.chis[rows], axis=1)[:, None]
            rows = rows[:, None]
            rbar, outs, ents = self.rbar[rows, worst], self.outs[rows, worst], self.entropies[rows, worst]
            scale = 1.0
        else:
            rbar, outs, ents = self.rbar[rows], self.outs[rows], self.entropies[rows]
            scale = 1.0 / self.nb
        w, v = np.linalg.eigh(rbar)
        logm = (v * np.log2(np.maximum(w, _EIG_FLOOR))[..., None, :]) @ v.conj().swapaxes(-1, -2)
        logm_t = logm.swapaxes(-1, -2)[..., None, :, :]
        # Re tr(outs_j logm), summed row by row as einsum("jab,ba->j") does
        traces = (outs.real * logm_t.real - outs.imag * logm_t.imag).sum(axis=-1).sum(axis=-1)
        g = np.zeros((len(rows), self.m))
        for i in range(traces.shape[1]):
            g += -traces[:, i] - ents[:, i]
        return g * scale

    def prob_step(self, final: bool = False) -> np.ndarray | None:
        """One Blahut-Arimoto update of every restart's probabilities for its
        current states.  With `final`, updates until each restart's duality
        gap falls below tol, its min-mode update is rejected, or _PROB_ITERS
        updates have run; returns the gaps at the committed probabilities."""
        rows = np.arange(self.value.size)
        g = self._gradient(rows)
        if not final:
            self._blahut_arimoto(rows, g)
            return None
        gaps = self._duality_gap(rows, g)
        live = np.ones(rows.size, dtype=bool)
        for _ in range(_PROB_ITERS):
            todo = np.flatnonzero(live & (gaps >= self.cfg.tol))
            if not todo.size:
                break
            keep = self._blahut_arimoto(todo, g[todo])
            live[todo[~keep]] = False
            todo = todo[keep]
            g[todo] = self._gradient(todo)
            gaps[todo] = self._duality_gap(todo, g[todo])
        return gaps

    def _duality_gap(self, rows: np.ndarray, g: np.ndarray) -> np.ndarray:
        # probs @ g is a convex combination of g, so it can exceed max(g)
        # only by round-off
        return np.maximum(0.0, np.max(g, axis=1) - _dot(self.probs[rows], g))

    def _blahut_arimoto(self, rows: np.ndarray, g: np.ndarray) -> np.ndarray:
        """p_j <- p_j 2^(g_j) / Z for g = `_gradient(rows)`; returns the mask
        of `rows` committed.  In mean mode the update never lowers the value
        (up to round-off), so every row commits; in min mode the worst branch
        can change, so a row commits only if its minimum strictly improves."""
        w = self.probs[rows] * np.exp2(g - np.max(g, axis=1, keepdims=True))
        return self._commit_probs(rows, w / w.sum(axis=1, keepdims=True), guard=self.mode == "min")

    def candidates(self, moves: np.ndarray) -> tuple[np.ndarray, ...]:
        """A sweep's proposals computed ahead in one batch: the states
        psis + moves normalized (R, m, din), their channel outputs (R, m, nb,
        dout, dout), output entropies and weighted entropy increments
        p_j (S(out') - S(out_j)), both (R, m, nb).  Ahead is soon enough:
        member j's state, output and probability change only at its own
        proposal or between sweeps."""
        v = self.psis + moves
        # the bits of np.linalg.norm, row by row
        cands = v / np.sqrt(_dot(v.real, v.real) + _dot(v.imag, v.imag))[..., None]
        outs = _apply_pure(self.transfer, cands)
        ents = _entropies(outs)
        return cands, outs, ents, self.probs[..., None] * (ents - self.entropies.swapaxes(1, 2))

    def propose(self, j: int, sweep: tuple[np.ndarray, ...]) -> np.ndarray:
        """Offer each restart member j's candidate from the `sweep` that
        `candidates` returned; a restart keeps the move only if its objective
        improves, written in place by masked copies.  The increment
        p_j (out' - out_j) is formed here: a sweep's worth would be as large
        as the outputs.  Returns the mask of gains >= _MIN_IMPROVEMENT."""
        cands, outs, ents, dents = sweep
        out = outs[:, j]
        rbar = self.rbar + self.probs[:, j, None, None, None] * (out - self.outs[:, :, j])
        sum_p_s = self.sum_p_s + dents[:, j]
        chis = _entropies(rbar) - sum_p_s
        value = self._combine(chis)
        gain = value - self.value
        keep = gain > 0
        if keep.any():
            rows, mats = keep[:, None], keep[:, None, None, None]
            np.copyto(self.psis[:, j], cands[:, j], where=rows)
            np.copyto(self.outs[:, :, j], out, where=mats)
            np.copyto(self.entropies[:, :, j], ents[:, j], where=rows)
            np.copyto(self.rbar, rbar, where=mats)
            np.copyto(self.sum_p_s, sum_p_s, where=rows)
            np.copyto(self.chis, chis, where=rows)
            np.copyto(self.value, value, where=keep)
        return gain >= _MIN_IMPROVEMENT


def _initial_states(dim: int, m: int, rng: np.random.Generator) -> np.ndarray:
    psis = rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim))
    return psis / np.linalg.norm(psis, axis=1, keepdims=True)


def _moves(m: int, dim: int, envelope: float, rngs) -> np.ndarray:
    """A sweep's random moves, shape (len(rngs), m, dim): restart n draws
    its m steps in one call to rngs[n] and their noise in one more."""
    # spread proposals over two decades below the decaying envelope so fine
    # refinements are tried long before the envelope shrinks
    steps = np.stack([envelope * 10.0 ** (-2.0 * rng.random(m)) for rng in rngs])
    noise = np.stack([rng.normal(size=(m, 2 * dim)) for rng in rngs])
    return steps[..., None] * (noise[..., :dim] + 1j * noise[..., dim:])


def _ascend(
    transfer: np.ndarray,
    mode: str,
    psis: np.ndarray,
    cfg: OptimizerConfig,
    rngs: Sequence[np.random.Generator],
) -> list[_RestartOutcome]:
    """Run one restart per row of `psis` (R, m, din) in lockstep from
    uniform probabilities on the branches' (branches, dout^2, din^2)
    transfer matrices, restart r drawing from rngs[r].  A restart freezes
    after _PATIENCE proposals in a row below _MIN_IMPROVEMENT and leaves
    the batch, so the proposals of the others cost nothing for it; all take
    the final probability step together."""
    restarts, m, dim = psis.shape
    ascent = _Ascent(transfer, mode, psis, np.full((restarts, m), 1.0 / m), cfg)
    ascent.prob_step()
    ids = np.arange(restarts)  # the restart of each row of `ascent`
    gens = list(rngs)  # and its generator
    # proposal k = t m + j freezes a restart whose latest gain >= _MIN_IMPROVEMENT
    # came at proposal last <= k - _PATIENCE: none before due = min(last) + _PATIENCE
    last, due = np.full(restarts, -1), _PATIENCE - 1
    frozen_at = np.zeros(restarts, dtype=int)  # the sweep, 0 if never
    frozen = []  # (ids, batch) of the restarts that have left `ascent`
    for t in range(cfg.iters):
        # drawn a sweep ahead: a restart that freezes mid-sweep never draws
        # again, so the moves it leaves unused change nothing
        moves = _moves(m, dim, max(_STEP_MIN, _STEP0 * _STEP_DECAY**t), gens)
        sweep = ascent.candidates(moves)
        for j in range(m):
            k = t * m + j
            last[ascent.propose(j, sweep)] = k
            if k < due:
                continue
            leave = k - last >= _PATIENCE
            if leave.any():
                frozen_at[ids[leave]] = t + 1
                frozen.append((ids[leave], ascent.split(leave)))
                ids, last = ids[~leave], last[~leave]
                sweep = tuple(x[~leave] for x in sweep)
                gens = [rngs[r] for r in ids]
                if not ids.size:
                    break
            due = last.min() + _PATIENCE
        if not ids.size:
            break
        ascent.prob_step()
    for members, batch in frozen:
        ids = np.concatenate([ids, members])
        ascent.join(batch)
    gaps = ascent.prob_step(final=True)
    outcomes = [None] * restarts
    for n, r in enumerate(ids):
        outcomes[r] = _RestartOutcome(
            float(ascent.value[n]), ascent.psis[n], ascent.probs[n],
            int(frozen_at[r] or cfg.iters), bool(frozen_at[r]), float(gaps[n]),
        )
    return outcomes


def _maximize(
    branches: Sequence[KrausChannel],
    mode: str,
    m: int | None,
    cfg: OptimizerConfig,
    evaluate: Callable[[Ensemble], float],
) -> OptResult:
    # checked before the transfer matrices, which grow as the input
    # dimension to the fourth power, are built
    dim = branches[0].din
    if dim > MAX_PRODUCT_DIM:
        raise CapabilityError(
            f"input dimension {dim} exceeds the optimizer cap {MAX_PRODUCT_DIM}"
        )
    if m is None:
        m = dim * dim
    if m < 1:
        raise ValueError(f"ensemble size must be positive, got {m}")
    cfg = cfg.seeded()
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    rngs = [np.random.Generator(np.random.PCG64(child)) for child in children]
    psis = np.stack([_initial_states(dim, m, rng) for rng in rngs])
    transfer = np.stack([b.transfer for b in branches])
    outcomes = _ascend(transfer, mode, psis, cfg, rngs)

    best = max(outcomes, key=lambda outcome: outcome.value)  # the first of ties
    ensemble = Ensemble(best.probs, tuple(DensityMatrix(np.outer(psi, psi.conj())) for psi in best.psis))
    # Report the value re-evaluated through the library path (the Kraus sum,
    # not the transfer matrix) so it is exactly reproducible from the
    # returned ensemble.
    return OptResult(
        value=evaluate(ensemble),
        ensemble=ensemble,
        converged=best.converged,
        seed=cfg.seed,
        duality_gap=best.duality_gap,
    )


def maximize_chi(
    ch: KrausChannel, m: int | None = None, cfg: OptimizerConfig = OptimizerConfig()
) -> OptResult:
    """Lower-bound the Holevo capacity by ascent over size-m pure ensembles."""
    return _maximize([ch], "mean", m, cfg, lambda ens: holevo.chi(ch, ens))


def maximize_avg_chi(
    ch: PeriodicChannel, m: int | None = None, cfg: OptimizerConfig = OptimizerConfig()
) -> OptResult:
    """Maximize the period-averaged Holevo quantity over one shared ensemble."""
    return _maximize(ch.branches, "mean", m, cfg, lambda ens: holevo.chi_periodic_average(ch, ens))


def maximize_min_chi(
    ch: ConvexCombinationChannel,
    m: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> OptResult:
    """Maximize the worst-branch Holevo quantity (maximin); ascent accepts a
    move only when the minimum itself improves, ties resolved toward the
    lowest branch index."""
    return _maximize(ch.branches, "min", m, cfg, lambda ens: holevo.chi_branch_min(ch, ens))


def additivity_gap(
    ch: KrausChannel,
    chi_star_single: float,
    m: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> float:
    """Best entangled two-use value found, minus 2 * chi_star_single; a
    positive gap beyond optimizer noise would contradict additivity."""
    return maximize_chi(ch, m, cfg).value - 2.0 * chi_star_single
