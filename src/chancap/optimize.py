"""Multi-start gradient ascent over input ensembles.

Independent numerical maximization of Holevo-quantity objectives: the check
against every closed form, and the probe for any gain from entangled inputs.
An ensemble is m pure states psi_j with probabilities p_j.  Branch i of the
channel maps them to outputs sigma_ij with average sigma_bar_i, and the
objective weighs the branches' Holevo quantities chi_i by weights w: uniform
for the Holevo quantity and its branch average ("mean" mode), one-hot on the
worst branch for the branch minimum ("min" mode, maximin).

One iteration moves every member of a restart at once.  Let
G_j = sum_i w_i Phi_i^dag(log2 sigma_ij - log2 sigma_bar_i), where Phi_i^dag,
the adjoint of branch i, is the conjugate transpose of its transfer matrix,
and g_j = <psi_j|G_j|psi_j> = sum_i w_i D(sigma_ij || sigma_bar_i).  Member
j's tangent gradient is G_j psi_j - g_j psi_j: the objective's gradient in
psi_j is p_j G_j psi_j, and the step leaves out the factor p_j.  The states
take a limited-memory quasi-Newton step along the sphere (L-BFGS: Liu &
Nocedal, Math. Prog. 45:503, 1989; on a product of spheres, Huang, Gallivan
& Absil, SIAM J. Optim. 25:1660, 2015), psi_j <- normalize(psi_j + eta d_j).
The direction d is the two-loop recursion applied to the restart's tangent
gradients, stacked as one real vector, with its last _MEMORY curvature pairs
(s, y), then projected onto the tangent space at every member (its
component along psi_j removed).  A kept iteration gives the pair s, the
change of the stacked states, and y, the fall of the stacked tangent
gradients; it is stored only when <s, y> > 0, which keeps the recursion's
inverse-Hessian estimate positive definite, and the oldest pair then drops
out.  With no pair, d is the tangent gradient.  The probabilities take one
Blahut-Arimoto update p_j <- p_j 2^g_j, normalized.  A restart keeps the
iteration only if its value rises.  eta starts at the unit quasi-Newton
step, 1, and never exceeds it: it grows 1.5x toward 1 on a kept iteration
and halves on a rejected one, which leaves the pairs as they were.  Like
eta, the pairs belong to one restart and every inner product is taken row
by row, so a restart's path is the same in any batch.  The duality gap
max_j g_j - sum_j p_j g_j bounds what any reweighting of the states could
add (in min mode to the branch minimum as well).  A restart stops,
converged, once it is stationary to first order: that gap is below 1e-6
bits and every member's tangent gradient has norm below 1e-6.  Otherwise
the iteration cap stops it.

All restarts of a chunk run in lockstep as one numpy batch, and a restart
leaves the batch when it stops.  `_Ascent` owns every per-restart array, eta
and the curvature pairs among them, so a stopped restart leaves them all at
once.  Chunks hold as many restarts as keep their member outputs and
curvature pairs within 8 MiB, the step holding a few arrays of the outputs'
size.
Every restart starts from m random pure states, none at a known optimum,
drawn from the r-th child of SeedSequence(seed) (numpy's PCG64) for restart
r; nothing else is random, so runs are reproducible and each restart's
outcome depends on its start states alone.  The reported value is the best
restart's ensemble re-evaluated through the channels' Kraus form; a search
whose two values differ by more than 1e-9 bits raises ArithmeticError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import holevo
from .channels import ConvexCombinationChannel, KrausChannel, PeriodicChannel, check_product_size
from .entropy import _entropies
from .holevo import Ensemble
from .params import check_integer, check_positive_integer
from .sampling import random_unit_vectors
from .states import DensityMatrix

_EIG_FLOOR = 1e-30  # keeps the logs of rank-deficient outputs finite
_FINAL_GAP = 1e-6  # duality gap (bits) below which a restart may stop
_GRAD_DONE = 1e-6  # tangent gradient norm below which a member is stationary
_MEMORY = 3  # curvature pairs each restart keeps for its quasi-Newton direction
_CHUNK_BYTES = 8 << 20  # member outputs and curvature pairs of the restarts run as one batch
_CROSS_CHECK_TOL = 1e-9  # bits between the ascent's value and the Kraus form's


@dataclass(frozen=True)
class OptimizerConfig:
    """The search budget, one field per `verify` flag; defaults hit the
    package's verification tolerances in seconds at d = 2.

    Each of the `restarts` takes at most `iters` iterations, each moving all
    its members and probabilities; a restart stops sooner once it has
    converged.  `seed` picks the start states (None draws one per run, see
    `seeded`).
    """

    restarts: int = 32
    iters: int = 2000
    seed: int | None = None

    def __post_init__(self):
        check_positive_integer("restarts", self.restarts)
        check_positive_integer("iters", self.iters)
        if self.seed is not None:
            check_integer("seed", self.seed)
            if self.seed < 0:
                raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def seeded(self) -> OptimizerConfig:
        """This budget with a seed: its own, or a freshly drawn one."""
        if self.seed is not None:
            return self
        return replace(self, seed=int(np.random.SeedSequence().entropy))


@dataclass(frozen=True)
class OptResult:
    """Best value found over all restarts, the ensemble achieving it, and
    the best restart's diagnostics.

    `converged` says whether that restart stopped with a duality gap below
    1e-6 bits and every member's tangent gradient below 1e-6 in norm, rather
    than at the iteration cap.
    `seed` is the seed the run drew from (the generated one when the config
    gave none).  `duality_gap` is that restart's final gap in bits: no
    reweighting of its states raises the value by more.  In min mode it is
    the worst branch's gap, which bounds the branch minimum as well."""

    value: float
    ensemble: Ensemble
    converged: bool
    seed: int
    duality_gap: float


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, broadcast over the rest; each is
    one BLAS dot, so a row's result does not depend on the batch."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(a: np.ndarray) -> np.ndarray:
    """Norms over the last axis with the bits of np.linalg.norm, row by row."""
    return np.sqrt(_dot(a.real, a.real) + _dot(a.imag, a.imag))


def _real(a: np.ndarray) -> np.ndarray:
    """A stack (R, ...) of complex arrays as real vectors (R, n): each
    row's real and imaginary parts interleaved, so _dot of two rows is the
    real part of their inner product."""
    return a.reshape(len(a), -1).view(np.float64)


def _log2m(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix log2 of the Hermitian matrices with eigenvalues w (..., d) and
    eigenvectors v (..., d, d), the eigenvalues floored at _EIG_FLOOR."""
    return (v * np.log2(np.maximum(w, _EIG_FLOOR))[..., None, :]) @ v.conj().swapaxes(-1, -2)


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
    """The state of a batch of restarts, each array with a leading restart
    axis: its row in the batch it started in, its eta, its curvature pairs
    s and y (R, _MEMORY, 2 m din) as real vectors, oldest first, with rho =
    1 / <s, y> (R, _MEMORY), 0 in a slot not yet filled, and its evaluated
    ensemble: states psis (R, m, din), probabilities (R, m), the objective's
    value, each member's tangent gradient G_j psi_j - g_j psi_j (R, m, din),
    g (R, m) and the duality gap.  The branches come as one (branches,
    dout^2, din^2) stack of transfer matrices."""

    _EVALUATED = ("psis", "probs", "value", "grad", "g", "gap")
    _PER_RESTART = ("row", "eta", "s", "y", "rho") + _EVALUATED

    def __init__(self, transfer: np.ndarray, mode: str, psis, probs):
        self.transfer = transfer
        # rows vec(L) of stacked branches times this give vec(sum_i Phi_i^dag(L_i))
        self.adjoint = transfer.conj().reshape(-1, transfer.shape[-1])
        self.mode = mode
        # copies: the batch writes its kept iterations in place
        state = self._evaluate(np.array(psis, dtype=np.complex128), np.array(probs, dtype=np.float64))
        for name, x in zip(self._EVALUATED, state):
            setattr(self, name, x)
        restarts = len(self.psis)
        self.row = np.arange(restarts)
        self.eta = np.ones(restarts)
        self.s = np.zeros((restarts, _MEMORY, 2 * self.psis[0].size))
        self.y = np.zeros_like(self.s)
        self.rho = np.zeros((restarts, _MEMORY))

    def select(self, rows: np.ndarray):
        """Keep only the restarts selected by the boolean mask `rows`."""
        for name in self._PER_RESTART:
            setattr(self, name, getattr(self, name)[rows])

    def _weights(self, chis: np.ndarray) -> np.ndarray:
        """The branch weights (R, branches) at the Holevo quantities `chis`:
        uniform in mean mode, one-hot on the worst branch (the lowest index
        of ties) in min mode."""
        if self.mode == "min":
            return np.eye(chis.shape[1])[np.argmin(chis, axis=1)]
        return np.full(chis.shape, 1.0 / chis.shape[1])

    def _evaluate(self, psis: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, ...]:
        """The `_EVALUATED` arrays of the ensembles `psis`, `probs`, with G_j,
        g_j and the gap as in the module docstring."""
        restarts, m, din = psis.shape
        outs = _apply_pure(self.transfer, psis)
        # sum_j probs[:, j] outs[:, j] per branch, in order: a BLAS product
        # would split the sum by thread count
        flat = outs.reshape(outs.shape[:3] + (-1,))
        rbar = np.einsum("rj,rjbk->rbk", probs, flat).reshape(outs.shape[:1] + outs.shape[2:])
        evals, evecs = np.linalg.eigh(outs)
        del outs, flat  # the outputs, which the logs below match in size
        rw, rv = np.linalg.eigh(rbar)
        chis = _entropies(rw) - _dot(probs[:, None, :], _entropies(evals).swapaxes(1, 2))
        weights = self._weights(chis)
        value = (weights * chis).sum(axis=1)
        logs = _log2m(evals, evecs)
        del evecs
        logs -= _log2m(rw, rv)[:, None]
        logs *= weights[:, None, :, None, None]
        big_g = (logs.reshape(restarts * m, -1) @ self.adjoint).reshape(restarts, m, din, din)
        del logs
        g_psi = (big_g @ psis[..., None])[..., 0]
        g = _dot(psis.conj(), g_psi).real
        # probs @ g is a convex combination of g, so it can exceed max(g)
        # only by round-off
        gap = np.maximum(0.0, g.max(axis=1) - _dot(probs, g))
        return psis, probs, value, g_psi - g[..., None] * psis, g, gap

    def stationary(self) -> np.ndarray:
        """The mask of restarts that meet the stop test of the module
        docstring."""
        return (self.gap < _FINAL_GAP) & (_norms(self.grad).max(axis=1) < _GRAD_DONE)

    def direction(self) -> np.ndarray:
        """Each member's step direction (R, m, din): the two-loop recursion
        on the stacked tangent gradients with the restart's curvature pairs,
        scaled by <s, y> / <y, y> of the newest (1 with none), less each
        member's component along its state.  An empty slot adds nothing."""
        q = _real(self.grad).copy()
        alpha = np.zeros(self.rho.shape)
        for i in reversed(range(_MEMORY)):
            alpha[:, i] = self.rho[:, i] * _dot(self.s[:, i], q)
            q -= alpha[:, i, None] * self.y[:, i]
        s, y = self.s[:, -1], self.y[:, -1]
        q *= np.divide(_dot(s, y), _dot(y, y), out=np.ones(len(q)), where=self.rho[:, -1] > 0)[:, None]
        for i in range(_MEMORY):
            q += (alpha[:, i] - self.rho[:, i] * _dot(self.y[:, i], q))[:, None] * self.s[:, i]
        d = q.view(np.complex128).reshape(self.psis.shape)
        return d - _dot(self.psis.conj(), d)[..., None] * self.psis

    def step(self) -> np.ndarray:
        """One iteration along `direction`, with the keep rule, curvature
        pairs and eta schedule of the module docstring.  Returns the kept
        mask."""
        v = self.psis + self.eta[:, None, None] * self.direction()
        psis = v / _norms(v)[..., None]
        probs = self.probs * np.exp2(self.g - self.g.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        state = dict(zip(self._EVALUATED, self._evaluate(psis, probs)))
        keep = state["value"] > self.value
        s, y = _real(psis - self.psis), _real(self.grad - state["grad"])
        sy = _dot(s, y)
        new = keep & (sy > 0)
        # the restart's oldest pair drops out
        for pairs, pair in ((self.s, s), (self.y, y), (self.rho, 1.0 / np.where(new, sy, 1.0))):
            pairs[new, :-1] = pairs[new, 1:]
            pairs[new, -1] = pair[new]
        for name, x in state.items():
            old = getattr(self, name)
            np.copyto(old, x, where=keep.reshape((-1,) + (1,) * (old.ndim - 1)))
        self.eta = np.where(keep, np.minimum(1.0, 1.5 * self.eta), 0.5 * self.eta)
        return keep


def _ascend(transfer: np.ndarray, mode: str, psis: np.ndarray, iters: int) -> dict[str, np.ndarray]:
    """Run one restart per row of `psis` (R, m, din) from uniform
    probabilities on the branches' (branches, dout^2, din^2) transfer
    matrices, for at most `iters` iterations each, in chunks of restarts
    whose member outputs and curvature pairs fit _CHUNK_BYTES.  Returns,
    indexed by restart, the final value, psis, probs, iterations, converged
    and duality_gap."""
    restarts, m, din = psis.shape
    # per restart: its member outputs, and its curvature pairs
    size = max(1, _CHUNK_BYTES // (16 * m * (transfer.shape[0] * transfer.shape[1] + 2 * _MEMORY * din)))
    out = {"value": np.empty(restarts), "psis": np.empty(psis.shape, dtype=np.complex128),
           "probs": np.empty((restarts, m)), "iterations": np.empty(restarts, dtype=int),
           "converged": np.empty(restarts, dtype=bool), "duality_gap": np.empty(restarts)}
    for first in range(0, restarts, size):
        chunk = psis[first : first + size]
        ascent = _Ascent(transfer, mode, chunk, np.full(chunk.shape[:2], 1.0 / m))
        for t in range(iters + 1):
            converged = ascent.stationary()
            stop = converged | (t == iters)
            if stop.any():
                rows = first + ascent.row[stop]
                for name, x in (("value", ascent.value), ("psis", ascent.psis), ("probs", ascent.probs),
                                ("converged", converged), ("duality_gap", ascent.gap)):
                    out[name][rows] = x[stop]
                out["iterations"][rows] = t
                if stop.all():
                    break
                ascent.select(~stop)
            ascent.step()
    return out


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
    check_product_size(dim)
    # an optimal ensemble needs at most dim^2 pure states (Davies), and m
    # sizes every restart's cached outputs
    if m is None:
        m = dim * dim
    check_integer("m", m)
    if not 1 <= m <= dim * dim:
        raise ValueError(f"ensemble size m must be between 1 and {dim * dim}, the input "
                         f"dimension squared, got {m}")
    cfg = cfg.seeded()
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    rngs = [np.random.Generator(np.random.PCG64(child)) for child in children]
    psis = np.stack([random_unit_vectors(dim, m, rng) for rng in rngs])
    out = _ascend(np.stack([b.transfer for b in branches]), mode, psis, cfg.iters)

    best = int(np.argmax(out["value"]))  # the first of ties
    ensemble = Ensemble(out["probs"][best],
                        tuple(DensityMatrix(np.outer(psi, psi.conj())) for psi in out["psis"][best]))
    ascent_value = float(out["value"][best])
    # Report the value re-evaluated through the library path (the Kraus sum,
    # not the transfer matrix) so it is exactly reproducible from the
    # returned ensemble, and check it against the ascent's own.
    value = evaluate(ensemble)
    if not abs(value - ascent_value) <= _CROSS_CHECK_TOL:
        raise ArithmeticError(f"the Kraus form gives {value!r} bits where the ascent gave "
                              f"{ascent_value!r}, more than {_CROSS_CHECK_TOL} apart")
    return OptResult(value=value, ensemble=ensemble, converged=bool(out["converged"][best]),
                     seed=cfg.seed, duality_gap=float(out["duality_gap"][best]))


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
    """Maximize the worst-branch Holevo quantity (maximin): each iteration
    follows the worst branch, ties resolved toward the lowest branch index,
    and is kept only when the minimum itself rises."""
    return _maximize(ch.branches, "min", m, cfg, lambda ens: holevo.chi_branch_min(ch, ens))

