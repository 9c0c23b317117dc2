"""Multi-start alternating ascent over input ensembles.

Independent numerical maximization of Holevo-quantity objectives: the check
against every closed form, and the probe for any gain from entangled inputs.
States move by random local perturbations with a decaying step, accepting
improvements only.  Between sweeps the probabilities take a step of their own
(the objective is concave in them).  For the Holevo quantity and its branch
average ("mean" mode) that step is the Blahut-Arimoto update of the
classical-quantum channel j -> sigma_j: p_j <- p_j 2^{D(sigma_j || sigma_bar)},
normalized.  One update per sweep, warm-started from the previous sweep; after
the last sweep it repeats until the duality gap max_j D(sigma_j || sigma_bar)
- chi, an upper bound on what any reweighting of the final states could add,
falls below `tol` or `prob_iters` updates have run.  The branch minimum ("min" mode) is not of that form and
keeps projected-gradient ascent on the simplex.

The pseudo-random source is numpy's PCG64; restart r draws from the r-th
child of SeedSequence(seed), so runs are reproducible and the per-restart
streams do not depend on the restart count.  Restart 0 starts from the
uniform computational-basis ensemble, the rest from random pure states.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import holevo
from ._kernels import apply_kraus_pure, entropy_psd
from .channels import ConvexCombinationChannel, KrausChannel, PeriodicChannel
from .errors import CapabilityError
from .holevo import Ensemble
from .states import DensityMatrix

_BACKTRACK_FLOOR = 1e-14
_EIG_FLOOR = 1e-30  # keeps log2 of the average output finite in gradients


@dataclass(frozen=True)
class OptimizerConfig:
    """Budgets and knobs for the ascent; defaults hit the package's
    verification tolerances in minutes at desk scale.

    `tol` is the duality-gap stop (bits) of the Blahut-Arimoto probability
    step run after the last sweep in mean mode; that step also stops after
    `prob_iters` updates.  The min-mode objective (maximin) does not use
    `tol`: its projected-gradient step stops on a gain below `prob_tol` or
    after `prob_iters` gradient steps.
    """

    restarts: int = 32
    iters: int = 2000
    seed: int | None = None
    tol: float = 1e-6
    threads: int = 1
    step0: float = 0.5
    step_decay: float = 0.9935
    step_min: float = 1e-6
    patience: int = 200
    min_improvement: float = 1e-10
    dim_cap: int = 16
    prob_iters: int = 200
    prob_tol: float = 1e-13

    def __post_init__(self):
        if self.restarts < 1 or self.iters < 1:
            raise ValueError("restarts and iters must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class EnsembleParams:
    """Unconstrained ensemble parametrization: unit state vectors plus
    logits mapped to the probability simplex."""

    states: np.ndarray  # (m, dim) rows of unit norm
    logits: np.ndarray  # (m,)

    @property
    def m(self) -> int:
        return self.states.shape[0]

    def probabilities(self) -> np.ndarray:
        e = np.exp(self.logits - np.max(self.logits))
        return e / e.sum()

    def decode(self) -> Ensemble:
        states = tuple(
            DensityMatrix(np.outer(psi, psi.conj())) for psi in self.states
        )
        return Ensemble(self.probabilities(), states)


@dataclass(frozen=True)
class OptResult:
    """Best value found, the ensemble achieving it, and run diagnostics.

    `duality_gap` is the best restart's final Blahut-Arimoto gap in bits:
    no reweighting of its states raises the value by more.  None in min
    mode."""

    value: float
    ensemble: Ensemble
    restarts_used: int
    iterations: int
    converged: bool
    seed: int
    duality_gap: float | None = None


@dataclass(frozen=True)
class _RestartOutcome:
    value: float
    psis: np.ndarray
    probs: np.ndarray
    iterations: int
    converged: bool
    duality_gap: float | None


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = idx[u + (1.0 - css) / idx > 0][-1]
    theta = (1.0 - css[rho - 1]) / rho
    return np.maximum(v + theta, 0.0)


class _Ascent:
    """Incremental evaluation state for one restart.

    Per branch i and ensemble member j it caches the channel output, its
    entropy, the probability-weighted average output and entropies, so a
    single-state proposal costs two eigensolves per branch instead of m+1.
    """

    def __init__(self, stacks: Sequence[np.ndarray], mode: str, psis, probs, cfg):
        self.stacks = list(stacks)
        self.mode = mode
        self.cfg = cfg
        self.psis = np.array(psis, dtype=np.complex128)
        self.probs = np.asarray(probs, dtype=np.float64)
        self.m = self.psis.shape[0]
        self.nb = len(self.stacks)
        dout = self.stacks[0].shape[1]
        self.outs = [np.empty((self.m, dout, dout), dtype=np.complex128) for _ in range(self.nb)]
        self.entropies = [np.empty(self.m) for _ in range(self.nb)]
        self.rbar = [None] * self.nb
        self.s_rbar = np.empty(self.nb)
        self.sum_p_s = np.empty(self.nb)
        self.chis = np.empty(self.nb)
        self.value = -np.inf
        for i, stack in enumerate(self.stacks):
            for j in range(self.m):
                self.outs[i][j] = apply_kraus_pure(stack, self.psis[j])
                self.entropies[i][j] = entropy_psd(self.outs[i][j])
        self._commit_probs(self.probs)

    def _combine(self, chis) -> float:
        if self.mode == "min":
            return float(np.min(chis))
        return float(np.mean(chis))

    def _chis_at(self, probs: np.ndarray) -> np.ndarray:
        chis = np.empty(self.nb)
        for i in range(self.nb):
            avg = np.tensordot(probs, self.outs[i], axes=1)
            chis[i] = entropy_psd(avg) - float(probs @ self.entropies[i])
        return chis

    def _commit_probs(self, probs: np.ndarray):
        self.probs = probs
        for i in range(self.nb):
            self.rbar[i] = np.tensordot(probs, self.outs[i], axes=1)
            self.s_rbar[i] = entropy_psd(self.rbar[i])
            self.sum_p_s[i] = float(probs @ self.entropies[i])
            self.chis[i] = self.s_rbar[i] - self.sum_p_s[i]
        self.value = self._combine(self.chis)

    def _gradient(self) -> np.ndarray:
        """Supergradient of the objective in the probabilities (up to the
        uniform component the simplex projection ignores).  In mean mode
        entry j is the branch average of D(sigma_ij || sigma_bar_i), so
        value = probs @ gradient."""
        if self.mode == "min":
            active = [int(np.argmin(self.chis))]
            scale = 1.0
        else:
            active = list(range(self.nb))
            scale = 1.0 / self.nb
        g = np.zeros(self.m)
        for i in active:
            w, v = np.linalg.eigh(self.rbar[i])
            logm = (v * np.log2(np.maximum(w, _EIG_FLOOR))) @ v.conj().T
            traces = np.real(np.einsum("jab,ba->j", self.outs[i], logm))
            g += -traces - self.entropies[i]
        return g * scale

    def prob_step(self, final: bool = False) -> float | None:
        """Reoptimize the probabilities for the current states.

        Mean mode: one Blahut-Arimoto update; with `final`, updates until the
        duality gap falls below tol or prob_iters updates have run, returning
        the gap at the committed probabilities.  Min mode: projected gradient
        (see `_projected_gradient`) whether final or not; returns None."""
        if self.mode == "min":
            self._projected_gradient()
            return None
        g = self._gradient()
        if not final:
            self._blahut_arimoto(g)
            return None
        for _ in range(self.cfg.prob_iters):
            if self._duality_gap(g) < self.cfg.tol:
                break
            self._blahut_arimoto(g)
            g = self._gradient()
        return self._duality_gap(g)

    def _duality_gap(self, g: np.ndarray) -> float:
        # probs @ g is a convex combination of g, so it can exceed max(g)
        # only by round-off
        return max(0.0, float(np.max(g) - self.probs @ g))

    def _blahut_arimoto(self, g: np.ndarray):
        """p_j <- p_j 2^(g_j) / Z for g = `_gradient()`; never lowers the
        mean-mode value (up to round-off)."""
        w = self.probs * np.exp2(g - np.max(g))
        self._commit_probs(w / w.sum())

    def _projected_gradient(self):
        """Projected-gradient ascent with backtracking until the gain per
        gradient step falls below prob_tol.  Steps are accepted only when
        the combined objective improves."""
        eta = 1.0
        for _ in range(self.cfg.prob_iters):
            g = self._gradient()
            gain = 0.0
            while eta >= _BACKTRACK_FLOOR:
                cand = _project_simplex(self.probs + eta * g)
                chis = self._chis_at(cand)
                val = self._combine(chis)
                if val > self.value:
                    gain = val - self.value
                    self._commit_probs(cand)
                    break
                eta *= 0.5
            if gain < self.cfg.prob_tol:
                break
            eta = min(eta * 2.0, 1e3)

    def propose_state(self, j: int, step: float, rng: np.random.Generator) -> float:
        """Perturb member j; keep the move only if the objective improves.
        Returns the improvement (0 on rejection)."""
        noise = rng.normal(size=self.psis.shape[1]) + 1j * rng.normal(size=self.psis.shape[1])
        cand = self.psis[j] + step * noise
        cand /= np.linalg.norm(cand)
        p = self.probs[j]
        new_chis = np.empty(self.nb)
        payload = []
        for i in range(self.nb):
            out_new = apply_kraus_pure(self.stacks[i], cand)
            s_new = entropy_psd(out_new)
            rbar_new = self.rbar[i] + p * (out_new - self.outs[i][j])
            s_rbar_new = entropy_psd(rbar_new)
            sum_p_s_new = self.sum_p_s[i] + p * (s_new - self.entropies[i][j])
            new_chis[i] = s_rbar_new - sum_p_s_new
            payload.append((out_new, s_new, rbar_new, s_rbar_new, sum_p_s_new))
        new_value = self._combine(new_chis)
        gain = new_value - self.value
        if gain <= 0:
            return 0.0
        self.psis[j] = cand
        for i, (out_new, s_new, rbar_new, s_rbar_new, sum_p_s_new) in enumerate(payload):
            self.outs[i][j] = out_new
            self.entropies[i][j] = s_new
            self.rbar[i] = rbar_new
            self.s_rbar[i] = s_rbar_new
            self.sum_p_s[i] = sum_p_s_new
            self.chis[i] = new_chis[i]
        self.value = new_value
        return gain


def _initial_params(dim: int, m: int, rng: np.random.Generator, structured: bool) -> EnsembleParams:
    if structured:
        psis = np.eye(dim, dtype=np.complex128)[np.arange(m) % dim]
    else:
        psis = rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim))
        psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    return EnsembleParams(states=psis, logits=np.zeros(m))


def _run_restart(stacks, mode, dim, m, cfg, rng, structured) -> _RestartOutcome:
    params = _initial_params(dim, m, rng, structured)
    ascent = _Ascent(stacks, mode, params.states, params.probabilities(), cfg)
    ascent.prob_step()
    quiet = 0
    converged = False
    sweeps = 0
    for t in range(cfg.iters):
        sweeps = t + 1
        envelope = max(cfg.step_min, cfg.step0 * cfg.step_decay**t)
        for j in range(m):
            # spread proposals over two decades below the decaying envelope
            # so fine refinements are tried long before the envelope shrinks
            step = envelope * 10.0 ** (-2.0 * rng.random())
            gain = ascent.propose_state(j, step, rng)
            quiet = quiet + 1 if gain < cfg.min_improvement else 0
            if quiet >= cfg.patience:
                converged = True
                break
        if converged:
            break
        ascent.prob_step()
    gap = ascent.prob_step(final=True)
    return _RestartOutcome(ascent.value, ascent.psis, ascent.probs, sweeps, converged, gap)


def _decode(psis: np.ndarray, probs: np.ndarray) -> Ensemble:
    states = tuple(DensityMatrix(np.outer(psi, psi.conj())) for psi in psis)
    return Ensemble(probs, states)


def _maximize(
    stacks: Sequence[np.ndarray],
    mode: str,
    dim: int,
    m: int | None,
    cfg: OptimizerConfig,
    evaluate: Callable[[Ensemble], float],
) -> OptResult:
    if dim > cfg.dim_cap:
        raise CapabilityError(
            f"input dimension {dim} exceeds the optimizer cap {cfg.dim_cap}"
        )
    if m is None:
        m = dim * dim
    if m < 1:
        raise ValueError(f"ensemble size must be positive, got {m}")
    seed = cfg.seed if cfg.seed is not None else np.random.SeedSequence().entropy
    children = np.random.SeedSequence(seed).spawn(cfg.restarts)

    def run(idx: int) -> _RestartOutcome:
        rng = np.random.Generator(np.random.PCG64(children[idx]))
        return _run_restart(stacks, mode, dim, m, cfg, rng, structured=(idx == 0))

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(run, range(cfg.restarts)))
    else:
        outcomes = [run(i) for i in range(cfg.restarts)]

    best = outcomes[0]
    for outcome in outcomes[1:]:
        if outcome.value > best.value:
            best = outcome
    ensemble = _decode(best.psis, best.probs)
    # Report the value re-evaluated through the library path so it is exactly
    # reproducible from the returned ensemble.
    return OptResult(
        value=evaluate(ensemble),
        ensemble=ensemble,
        restarts_used=cfg.restarts,
        iterations=best.iterations,
        converged=best.converged,
        seed=int(seed),
        duality_gap=best.duality_gap,
    )


def maximize_chi(
    ch: KrausChannel, m: int | None = None, cfg: OptimizerConfig = OptimizerConfig()
) -> OptResult:
    """Lower-bound the Holevo capacity by ascent over size-m pure ensembles."""
    return _maximize(
        [ch.stack], "mean", ch.din, m, cfg, lambda ens: holevo.chi(ch, ens)
    )


def maximize_avg_chi(
    ch: PeriodicChannel, m: int | None = None, cfg: OptimizerConfig = OptimizerConfig()
) -> OptResult:
    """Maximize the period-averaged Holevo quantity over one shared ensemble."""
    return _maximize(
        [b.stack for b in ch.branches],
        "mean",
        ch.d,
        m,
        cfg,
        lambda ens: holevo.chi_periodic_average(ch, ens),
    )


def maximize_min_chi(
    ch: ConvexCombinationChannel,
    m: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> OptResult:
    """Maximize the worst-branch Holevo quantity (maximin); ascent accepts a
    move only when the minimum itself improves, ties resolved toward the
    lowest branch index."""
    return _maximize(
        [b.stack for b in ch.branches],
        "min",
        ch.d,
        m,
        cfg,
        lambda ens: holevo.chi_branch_min(ch, ens),
    )


def additivity_check(
    ch: KrausChannel,
    chi_star_single: float,
    m: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> tuple[float, OptResult]:
    """Search entangled two-use ensembles and compare against twice the
    single-use value.  Returns (gap, optimizer result); a positive gap beyond
    optimizer noise would contradict additivity."""
    result = maximize_chi(ch, m, cfg)
    return result.value - 2.0 * chi_star_single, result


def additivity_gap(
    ch: KrausChannel,
    chi_star_single: float,
    m: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> float:
    """Best entangled two-use value found, minus 2 * chi_star_single."""
    gap, _ = additivity_check(ch, chi_star_single, m, cfg)
    return gap
