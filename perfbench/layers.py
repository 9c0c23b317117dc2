"""Where the traced run hooks into chancap, and the per-layer metrics it
derives from the spans.

Layers are the package modules: ``_kernels``, ``optimize``, ``holevo`` with
``entropy``, ``channels``, ``capacity`` and ``cli`` (the last is timed in a
child process, see probe.py).  Every private target is optional: when a
refactor removes one, its metrics read 0 and the hook is listed as absent.
"""

from __future__ import annotations

import math
import statistics

from tracing import Hook, Tracer

KERNELS = ("entropy_psd", "apply_kraus_pure", "apply_kraus_dm")
OPTIMIZE_SPANS = ("optimize.maximize", "optimize.restart", "optimize.prob_step", "optimize.propose")


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _restart_done(tracer, args, kwargs, result, seconds):
    # _run_restart(stacks, mode, dim, m, cfg, rng, structured)
    tracer.events["optimize.restart"].append(
        {
            "dim": _arg(args, kwargs, 2, "dim"),
            "structured": _arg(args, kwargs, 6, "structured"),
            "value": getattr(result, "value", None),
            "sweeps": getattr(result, "iterations", None),
            "converged": getattr(result, "converged", None),
            "seconds": seconds,
        }
    )


def _proposal_done(tracer, args, kwargs, gain, seconds):
    if gain > 0:
        tracer.calls["optimize.propose.accepted"] += 1


def _span(name, *targets, **kw):
    return Hook(name, tuple(targets), **kw)


HOOKS = (
    _span("kernels.entropy_psd", ("chancap.optimize", "entropy_psd"), ("chancap._kernels", "entropy_psd")),
    _span("kernels.apply_kraus_pure", ("chancap.optimize", "apply_kraus_pure"), ("chancap._kernels", "apply_kraus_pure")),
    _span("kernels.apply_kraus_dm", ("chancap._kernels", "apply_kraus_dm"), ("chancap.channels", "apply_kraus_dm")),
    _span("optimize.maximize", ("chancap.optimize", "maximize_chi")),
    _span("optimize.maximize", ("chancap.optimize", "maximize_avg_chi")),
    _span("optimize.maximize", ("chancap.optimize", "maximize_min_chi")),
    _span("optimize.restart", ("chancap.optimize", "_run_restart"), on_return=_restart_done),
    _span("optimize.prob_step", ("chancap.optimize", "_Ascent.prob_step")),
    _span("optimize.propose", ("chancap.optimize", "_Ascent.propose_state"), on_return=_proposal_done),
    _span("optimize.prob_step.grad_evals", ("chancap.optimize", "_Ascent._gradient"), kind="count"),
    _span("optimize.prob_step.cand_evals", ("chancap.optimize", "_Ascent._chis_at"), kind="count"),
    _span("optimize.prob_step.commits", ("chancap.optimize", "_Ascent._commit_probs"),
          kind="count", inside="optimize.prob_step"),
    _span("holevo.chi", ("chancap.holevo", "chi")),
    _span("holevo.chi_via_relative_entropy", ("chancap.holevo", "chi_via_relative_entropy")),
    _span("holevo.mutual_information", ("chancap.holevo", "mutual_information")),
    _span("entropy.von_neumann_entropy", ("chancap.entropy", "von_neumann_entropy")),
    _span("entropy.relative_entropy", ("chancap.entropy", "relative_entropy")),
    _span("channels.apply", ("chancap.channels", "apply")),
    _span("capacity.verify", ("chancap.capacity", "verify_additivity")),
    _span("capacity.verify", ("chancap.capacity", "verify_theorem1")),
    _span("capacity.verify", ("chancap.capacity", "verify_theorem2")),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counts(tracer: Tracer) -> dict:
    """The deterministic part of a trace: call counts and restart outcomes."""
    restarts = [
        [r["dim"], r["structured"], r["sweeps"], r["converged"], r["value"]]
        for r in tracer.events["optimize.restart"]
    ]
    return {"calls": dict(sorted(tracer.calls.items())), "restarts": restarts}


def span_metrics(tracer: Tracer, n_ops: int, d: int | None, per_use: float | None) -> dict:
    """Per-op figures from the spans of n_ops traced ops.  ``d`` and
    ``per_use`` (single-use dimension and closed-form capacity) turn each
    random-start restart's final value into a shortfall below the closed
    form for its number of uses."""
    calls, self_s = tracer.calls, tracer.self_s
    out = {}
    for k in KERNELS:
        name = f"kernels.{k}"
        out[f"{name}.calls"] = calls[name] / n_ops
        out[f"{name}.self_s"] = self_s(name) / n_ops
        out[f"{name}.us_per_call"] = 1e6 * _ratio(self_s(name), calls[name])

    ps = "optimize.prob_step"
    cand = calls[f"{ps}.cand_evals"]
    out[f"{ps}.calls"] = calls[ps] / n_ops
    out[f"{ps}.self_s"] = self_s(ps) / n_ops
    out[f"{ps}.share"] = _ratio(tracer.total[ps], tracer.total["optimize.restart"])
    out[f"{ps}.grad_evals"] = calls[f"{ps}.grad_evals"] / n_ops
    out[f"{ps}.cand_evals"] = cand / n_ops
    out[f"{ps}.commit_ratio"] = _ratio(calls[f"{ps}.commits"], cand)

    pr = "optimize.propose"
    out[f"{pr}.calls"] = calls[pr] / n_ops
    out[f"{pr}.accepted"] = calls[f"{pr}.accepted"] / n_ops
    out[f"{pr}.accept_ratio"] = _ratio(calls[f"{pr}.accepted"], calls[pr])
    out[f"{pr}.self_s"] = self_s(pr) / n_ops
    out["optimize.glue_s"] = sum(self_s(s) for s in OPTIMIZE_SPANS) / n_ops

    restarts = tracer.events["optimize.restart"]
    out["optimize.restart.count"] = len(restarts) / n_ops
    out["optimize.restart.sweeps"] = sum(r["sweeps"] or 0 for r in restarts) / n_ops
    out["optimize.restart.converged"] = sum(bool(r["converged"]) for r in restarts) / n_ops
    out["optimize.restart.median_s"] = statistics.median(r["seconds"] for r in restarts) if restarts else 0.0
    shortfalls = [
        round(math.log(r["dim"]) / math.log(d)) * per_use - r["value"]
        for r in restarts
        if r["structured"] is False and r["value"] is not None and r["dim"] and d
    ]
    out["optimize.random_shortfall_bits.median"] = statistics.median(shortfalls) if shortfalls else 0.0
    out["optimize.random_shortfall_bits.max"] = max(shortfalls) if shortfalls else 0.0

    for name in ("holevo.chi", "holevo.chi_via_relative_entropy", "holevo.mutual_information"):
        out[f"{name}.self_s"] = self_s(name) / n_ops
    for name in ("entropy.von_neumann_entropy", "entropy.relative_entropy", "channels.apply"):
        out[f"{name}.calls"] = calls[name] / n_ops
        out[f"{name}.self_s"] = self_s(name) / n_ops
    out["capacity.verify.s"] = tracer.total["capacity.verify"] / n_ops
    out["capacity.verify.self_s"] = self_s("capacity.verify") / n_ops
    return out
