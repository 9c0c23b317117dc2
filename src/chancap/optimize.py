"""Multi-start gradient ascent over input ensembles.

Independent numerical maximization of Holevo-quantity objectives: the check
against every closed form, and the probe for any gain from entangled inputs.
An ensemble is m pure states psi_j with probabilities p_j.  Branch i of the
channel maps them to outputs sigma_ij with average sigma_bar_i, and the
objective weighs the branches' Holevo quantities chi_i by the weights w that
its rule reads off them: `_uniform_weights` for the Holevo quantity and its
branch average, `_worst_branch_weights` for the branch minimum (maximin).

A restart holds its ensemble as one unit vector Phi = (phi_1, ..., phi_m) in
C^(m din), phi_j = sqrt(p_j) psi_j, and reads p_j = |phi_j|^2 and psi_j off
it.  Let G_j = sum_i w_i Phi_i^dag(log2 sigma_ij - log2 sigma_bar_i), with
Phi_i^dag the adjoint of branch i (the conjugate transpose of its transfer
matrix), and g_j = <psi_j|G_j|psi_j> = sum_i w_i D(sigma_ij || sigma_bar_i);
the value is sum_j p_j g_j.  Each Phi_i^dag is unital, so Phi's tangent
gradient is G_j phi_j - value phi_j, zero where every member with p_j > 0
has g_j = value and a stationary state: the capacity's optimality
conditions.  One L-BFGS step (Liu & Nocedal, Math. Prog. 45:503, 1989; on
manifolds, Huang, Gallivan & Absil, SIAM J. Optim. 25:1660, 2015) moves
states and probabilities together, Phi <- normalize(Phi + eta d): d is the
two-loop recursion on the tangent gradient with the restart's last _MEMORY
curvature pairs (s, y), less its component along Phi.  A kept iteration
gives s, the change of Phi, and y, the fall of its tangent gradient, stored
in place of the oldest pair when <s, y> > 0 (keeping the inverse-Hessian
estimate positive definite); with no pair, d is the tangent gradient.  A
restart keeps an iteration, replacing its arrays, only if its value rises;
eta starts at 1, grows 1.5x toward 1 on a kept iteration and halves on a
rejected one.  Like eta, the pairs belong to one restart and every inner
product is taken row by row, so a restart's path is the same in any batch.

Each chi_i is concave in p with gradient g up to a constant, so the duality
gap max_j g_j - sum_j p_j g_j bounds what any reweighting of the states
could add (also to the worst-branch rule's minimum), whatever stopped the
restart.  A restart stops, converged, once that gap is below 1e-6 bits and
Phi's tangent gradient has norm below 5e-7; otherwise the iteration cap
stops it.  That norm squared is sum_j p_j (|G_j psi_j - g_j psi_j|^2 +
(g_j - value)^2): it weighs each member's own tangent gradient by sqrt(p_j),
so it is looser than a test of each member for members of small p_j.  It is
what the step drives to zero, and twice it bounds the value's first-order
rise along any unit move of Phi; as the step moves a light member's state
only through sqrt(p_j), a test of each member would hold restarts at the cap
over states that carry no weight.  The gap still catches any member, however
light, whose g_j exceeds the value.

All restarts of a chunk run in lockstep as one numpy batch, and a restart
leaves the batch when it stops.  Each starts from m Haar-random pure states
at uniform probabilities, none at a known optimum, that `random_unit_vectors`
draws from the r-th child of SeedSequence(seed) (numpy's PCG64) for restart
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
from .params import check_instance, check_integer, check_positive_integer
from .states import DensityMatrix

_EIG_FLOOR = 1e-30  # keeps the logs of rank-deficient outputs finite
_FINAL_GAP = 1e-6  # duality gap (bits) below which a restart may stop
_GRAD_DONE = 5e-7  # norm of Phi's tangent gradient below which a restart may stop
_MEMORY = 3  # curvature pairs each restart keeps for its quasi-Newton direction
_CHUNK_BYTES = 8 << 20  # member outputs and curvature pairs of the restarts run as one batch
_CROSS_CHECK_TOL = 1e-9  # bits between the ascent's value and the Kraus form's


@dataclass(frozen=True)
class OptimizerConfig:
    """The search budget, one field per `verify` flag; defaults hit the
    package's verification tolerances in seconds at d = 2.

    Each of the `restarts` takes at most `iters` iterations, each one step
    of its whole ensemble; a restart stops sooner once it has converged.
    `seed` picks the start states (None draws one per run, see `seeded`).
    """

    restarts: int = 32
    iters: int = 2000
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "restarts", check_positive_integer("restarts", self.restarts))
        object.__setattr__(self, "iters", check_positive_integer("iters", self.iters))
        if self.seed is not None:
            object.__setattr__(self, "seed", check_integer("seed", self.seed))
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
    1e-6 bits and the tangent gradient of its ensemble, as one unit vector,
    below 5e-7 in norm, rather than at the iteration cap.  `seed` is the
    seed the run drew from (the generated one when the config gave none).
    `duality_gap` is that restart's final gap in bits: no reweighting of its
    states raises the value, or the worst-branch rule's minimum, by more."""

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


def _phis(psis: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Rows (R, m din) of sqrt(p_j) psi_j: Phi for the ensembles `psis`, `probs`."""
    return (np.sqrt(probs)[..., None] * psis).reshape(len(psis), -1)


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


def _uniform_weights(chis: np.ndarray) -> np.ndarray:
    """Branch weights (R, branches), all equal whatever the Holevo quantities `chis`."""
    return np.full(chis.shape, 1.0 / chis.shape[1])


def _worst_branch_weights(chis: np.ndarray) -> np.ndarray:
    """Branch weights (R, branches) one-hot on the least of `chis`, the lowest index of ties."""
    return np.eye(chis.shape[1])[np.argmin(chis, axis=1)]


class _Ascent:
    """The state of a batch of restarts run in lockstep, each array with a
    leading restart axis, so that a stopped restart leaves them all at
    once: its row in the batch it started in, its eta, its curvature pairs
    s and y (R, _MEMORY, 2 m din) as real vectors, oldest first, zero in a
    slot not yet filled, and its evaluated ensemble, which a kept iteration
    replaces: the states psis (R, m, din) and probabilities (R, m) read off
    Phi, Phi itself and its tangent gradient (R, m din), the objective's
    value and the duality gap.  The branches come as one (branches, dout^2,
    din^2) stack of transfer matrices; `rule` reads their weights off the chi_i."""

    _EVALUATED = ("psis", "probs", "phis", "value", "grad", "gap")
    _PER_RESTART = ("row", "eta", "s", "y") + _EVALUATED

    def __init__(self, transfer: np.ndarray, rule: Callable[[np.ndarray], np.ndarray], psis: np.ndarray):
        self.transfer = transfer
        # each branch's rows vec(L) times its slice give vec(Phi_i^dag(L))
        self.adjoint = transfer.conj()
        self.rule = rule
        state = self._evaluate(psis, np.full(psis.shape[:2], 1.0 / psis.shape[1]))
        for name, x in zip(self._EVALUATED, state):
            setattr(self, name, x)
        restarts = len(self.psis)
        self.row = np.arange(restarts)
        self.eta = np.ones(restarts)
        self.s = np.zeros((restarts, _MEMORY, 2 * self.psis[0].size))
        self.y = np.zeros_like(self.s)

    def select(self, rows: np.ndarray):
        """Keep only the restarts selected by the boolean mask `rows`."""
        for name in self._PER_RESTART:
            setattr(self, name, getattr(self, name)[rows])

    def _evaluate(self, psis: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, ...]:
        """The `_EVALUATED` arrays of the ensembles `psis`, `probs`, with G_j,
        g_j and the gap as in the module docstring."""
        restarts, m, din = psis.shape
        outs = _apply_pure(self.transfer, psis)
        # sum_j probs[:, j] outs[:, j] per branch, in order: a BLAS product
        # would split the sum by thread count
        rbar = np.einsum("rj,rjbk->rbk", probs, outs.reshape(outs.shape[:3] + (-1,)))
        # each branch's average joins as member m; the rebinding frees the outputs
        outs = np.concatenate((outs, rbar.reshape(outs[:, :1].shape)), axis=1)
        evals, evecs = np.linalg.eigh(outs)
        del outs  # the logs below match it in size
        ents = _entropies(evals)
        chis = ents[:, m] - _dot(probs[:, None, :], ents[:, :m].swapaxes(1, 2))
        weights = self.rule(chis)
        value = (weights * chis).sum(axis=1)
        logs = _log2m(evals, evecs)
        del evecs
        logs = logs[:, :m] - logs[:, m:]
        logs *= weights[:, None, :, None, None]
        logs = logs.reshape(restarts * m, len(self.adjoint), -1)
        # one product per branch, added in branch order: one product over
        # all branches would split that sum by thread count
        big_g = sum(logs[:, i] @ adjoint for i, adjoint in enumerate(self.adjoint))
        del logs
        g_psi = (big_g.reshape(restarts, m, din, din) @ psis[..., None])[..., 0]
        g = _dot(psis.conj(), g_psi).real
        # probs @ g, the value up to round-off, is a convex combination of
        # g, so it can exceed max(g) only by round-off
        mean = _dot(probs, g)
        gap = np.maximum(0.0, g.max(axis=1) - mean)
        return psis, probs, _phis(psis, probs), value, _phis(g_psi - mean[:, None, None] * psis, probs), gap

    def stationary(self) -> np.ndarray:
        """The mask of restarts that meet the module docstring's stop test."""
        return (self.gap < _FINAL_GAP) & (_norms(self.grad) < _GRAD_DONE)

    def direction(self) -> np.ndarray:
        """Phi's step direction (R, m din): the two-loop recursion on the
        tangent gradient with the restart's curvature pairs, scaled by
        <s, y> / <y, y> of the newest (1 with none), less its component
        along Phi.  A slot whose <s, y> is 0 is empty and adds nothing."""
        sy = _dot(self.s, self.y)
        rho = np.divide(1.0, sy, out=np.zeros(sy.shape), where=sy > 0)
        q = self.grad.view(np.float64).copy()
        alpha = np.zeros(sy.shape)
        for i in reversed(range(_MEMORY)):
            alpha[:, i] = rho[:, i] * _dot(self.s[:, i], q)
            q -= alpha[:, i, None] * self.y[:, i]
        y = self.y[:, -1]
        q *= np.divide(sy[:, -1], _dot(y, y), out=np.ones(len(q)), where=sy[:, -1] > 0)[:, None]
        for i in range(_MEMORY):
            q += (alpha[:, i] - rho[:, i] * _dot(self.y[:, i], q))[:, None] * self.s[:, i]
        d = q.view(np.complex128)
        return d - _dot(self.phis.conj(), d)[:, None] * self.phis

    def step(self) -> np.ndarray:
        """One iteration along `direction`, with the keep rule, curvature
        pairs and eta schedule of the module docstring.  Returns the kept
        mask."""
        v = (self.phis + self.eta[:, None] * self.direction()).reshape(self.psis.shape)
        norms = _norms(v)
        probs = norms**2 / _dot(norms, norms)[:, None]
        state = dict(zip(self._EVALUATED, self._evaluate(v / norms[..., None], probs)))
        keep = state["value"] > self.value
        s = (state["phis"] - self.phis).view(np.float64)
        y = (self.grad - state["grad"]).view(np.float64)
        new = keep & (_dot(s, y) > 0)
        # the restart's oldest pair drops out
        for pairs, pair in ((self.s, s), (self.y, y)):
            pairs[new, :-1] = pairs[new, 1:]
            pairs[new, -1] = pair[new]
        for name, x in state.items():
            setattr(self, name, np.where(keep.reshape((-1,) + (1,) * (x.ndim - 1)), x, getattr(self, name)))
        self.eta = np.where(keep, np.minimum(1.0, 1.5 * self.eta), 0.5 * self.eta)
        return keep


def _ascend(transfer: np.ndarray, rule: Callable, psis: np.ndarray, iters: int) -> dict[str, np.ndarray]:
    """Run one restart per row of `psis` (R, m, din) from uniform
    probabilities on the branches' (branches, dout^2, din^2) transfer
    matrices, weighed by the branch-weight `rule`, for at most `iters`
    iterations each, in chunks of restarts whose member outputs and
    curvature pairs fit _CHUNK_BYTES.  Returns, indexed by restart, the
    final value, psis, probs, iterations, converged and duality_gap."""
    restarts, m, din = psis.shape
    # per restart: its member outputs, and its curvature pairs
    size = max(1, _CHUNK_BYTES // (16 * m * (transfer.shape[0] * transfer.shape[1] + 2 * _MEMORY * din)))
    out = {"value": np.empty(restarts), "psis": np.empty(psis.shape, dtype=np.complex128),
           "probs": np.empty((restarts, m)), "iterations": np.empty(restarts, dtype=int),
           "converged": np.empty(restarts, dtype=bool), "duality_gap": np.empty(restarts)}
    for first in range(0, restarts, size):
        ascent = _Ascent(transfer, rule, psis[first : first + size])
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


def random_unit_vectors(dim: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m Haar-random state vectors as the rows of an (m, dim) array:
    normalized complex Gaussians, the real parts drawn before the imaginary."""
    dim = check_positive_integer("dim", dim)
    m = check_positive_integer("m", m)
    psis = rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim))
    return psis / np.linalg.norm(psis, axis=1, keepdims=True)


def _maximize(branches: Sequence[KrausChannel], rule: Callable[[np.ndarray], np.ndarray], m: int | None,
              cfg: OptimizerConfig, evaluate: Callable[[Ensemble], float]) -> OptResult:
    # checked before the transfer matrices, which grow as the input
    # dimension to the fourth power, are built
    dim = check_product_size(branches[0].din)
    # an optimal ensemble needs at most dim^2 pure states (Davies), and m
    # sizes every restart's cached outputs
    m = dim * dim if m is None else check_integer("m", m)
    if not 1 <= m <= dim * dim:
        raise ValueError(f"ensemble size m must be between 1 and {dim * dim}, the input "
                         f"dimension squared, got {m}")
    cfg = cfg.seeded()
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    psis = np.stack([random_unit_vectors(dim, m, np.random.default_rng(c)) for c in children])
    out = _ascend(np.stack([b.transfer for b in branches]), rule, psis, cfg.iters)

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
    check_instance("channel", ch, KrausChannel)
    return _maximize([ch], _uniform_weights, m, cfg, lambda ens: holevo.chi(ch, ens))


def maximize_avg_chi(
    ch: PeriodicChannel, m: int | None = None, cfg: OptimizerConfig = OptimizerConfig()
) -> OptResult:
    """Maximize the period-averaged Holevo quantity over one shared ensemble."""
    check_instance("channel", ch, PeriodicChannel)
    return _maximize(ch.branches, _uniform_weights, m, cfg, lambda ens: holevo.chi_periodic_average(ch, ens))


def maximize_min_chi(
    ch: ConvexCombinationChannel, m: int | None = None, cfg: OptimizerConfig = OptimizerConfig()
) -> OptResult:
    """Maximize the worst-branch Holevo quantity (maximin): each iteration
    follows the worst branch and is kept only when the minimum itself rises."""
    check_instance("channel", ch, ConvexCombinationChannel)
    return _maximize(ch.branches, _worst_branch_weights, m, cfg, lambda ens: holevo.chi_branch_min(ch, ens))

