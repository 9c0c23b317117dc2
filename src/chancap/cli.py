"""Command-line front end.

Subcommands: `capacity {depolarizing|periodic|convex}`,
`verify {additivity|theorem1|theorem2}`, and `sweep`.  Output is a JSON
report (or CSV with --format csv); exit code 0 on success, 1 when a
verification check fails, 2 on usage or validation errors (including a
config key that is unknown or contradicts the command), 3 on a numerical
failure (an eigensolver that did not converge, or a non-finite value in the
report).

Determinism contract: the same flags and seed produce byte-identical
output.  Wall-clock timing is therefore reported only with --timings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

from . import capacity
from .errors import CapabilityError, CPViolationError, DimensionMismatchError
from .optimize import OptimizerConfig

_OPTIMIZER_KEYS = ("restarts", "iters", "m", "seed", "tol")
# config keys that name no flag
_BLOCK_KEYS = ("command", "channel", "optimizer")
# flags whose key in the config channel block differs from their destination
_CHANNEL_KEYS = {"lam": "lambda"}


class _NonFinite(ArithmeticError):
    """A report value is NaN or infinite."""


# the channel family each command works on, as a config's channel.type names it
_CHANNEL_TYPES = {
    "capacity depolarizing": "depolarizing",
    "capacity periodic": "periodic",
    "capacity convex": "convex",
    "verify additivity": "depolarizing",
    "verify theorem1": "periodic",
    "verify theorem2": "convex",
    "sweep": "depolarizing",
}


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated decimals, got {text!r}")


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--format", choices=("json", "csv"), default=None)
    sp.add_argument("--out", metavar="PATH", default=None)
    sp.add_argument("--config", metavar="FILE", default=None,
                    help="JSON run config; explicit flags override file values")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--timings", action="store_true",
                    help="include wall-clock timing (breaks byte-identical output)")


def _add_optimizer(sp: argparse.ArgumentParser):
    sp.add_argument("--restarts", type=int, default=None)
    sp.add_argument("--iters", type=int, default=None)
    sp.add_argument("--m", type=int, default=None, help="ensemble size (default: input dim squared)")
    sp.add_argument("--tol", type=float, default=None,
                    help="duality-gap stop (bits) of the final probability step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chancap",
        description="Capacities of depolarizing-branch channels: closed forms, "
        "optimizer verification, parameter sweeps.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    cap = top.add_parser("capacity", help="closed-form capacity of a channel")
    capsub = cap.add_subparsers(dest="family", required=True)
    sp = capsub.add_parser("depolarizing")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    _add_common(sp)
    sp = capsub.add_parser("periodic")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--lambdas", type=_float_list, default=None)
    _add_common(sp)
    sp = capsub.add_parser("convex")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--lambdas", type=_float_list, default=None)
    sp.add_argument("--gammas", type=_float_list, default=None)
    _add_common(sp)

    ver = top.add_parser("verify", help="compare the optimizer against the closed forms")
    versub = ver.add_subparsers(dest="family", required=True)
    sp = versub.add_parser("additivity")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    _add_optimizer(sp)
    _add_common(sp)
    sp = versub.add_parser("theorem1")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--lambdas", type=_float_list, default=None)
    _add_optimizer(sp)
    _add_common(sp)
    sp = versub.add_parser("theorem2")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--lambdas", type=_float_list, default=None)
    sp.add_argument("--gammas", type=_float_list, default=None)
    _add_optimizer(sp)
    _add_common(sp)

    sp = top.add_parser("sweep", help="tabulate S_min and chi* over a lambda grid")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--lambda-from", dest="lambda_from", type=float, default=None)
    sp.add_argument("--lambda-to", dest="lambda_to", type=float, default=None)
    sp.add_argument("--step", type=float, default=None)
    _add_common(sp)
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return cfg


def _pick(args, cfg_file: dict, name: str):
    """Flag value if given, else config-file value, else None."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg_file:
        return cfg_file[name]
    return cfg_file.get("channel", {}).get(_CHANNEL_KEYS.get(name, name))


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required value: {flag} (flag or config file)")
    return value


def _optimizer_config(args, cfg_file: dict) -> tuple[OptimizerConfig, int | None, int]:
    """Resolved optimizer settings, requested ensemble size, and the seed
    (generated and reported when absent)."""
    file_opt = cfg_file.get("optimizer", {})
    merged = {}
    for key in _OPTIMIZER_KEYS:
        value = getattr(args, key, None)
        if value is None:
            value = file_opt.get(key, cfg_file.get(key))
        merged[key] = value
    m = merged.pop("m")
    seed = merged.pop("seed")
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    merged = {k: v for k, v in merged.items() if v is not None}
    cfg = replace(OptimizerConfig(), seed=int(seed), **merged)
    return cfg, m, int(seed)


def _payload(command: str, inputs: dict, results: dict, checks=(), timing_ms=None, seed=None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": [c.as_dict() for c in checks],
        "timing_ms": timing_ms,
        "seed": seed,
    }


def _reject_unknown(block: dict, known, where: str):
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ValueError(
            f"unknown config {where}key(s) {', '.join(unknown)}; known: {', '.join(sorted(known))}"
        )


def _check_config(cfg_file: dict, args: argparse.Namespace, invoked: str):
    """Reject config keys that would otherwise be ignored or contradict the
    invoked command.  The keys accepted are the invoked command's flags
    (by destination): at the top level all of them, in the channel block
    those that `_add_common` and `_add_optimizer` do not add, which
    describe the channel."""
    if not cfg_file:
        return
    declared = cfg_file.get("command")
    if declared is not None and declared != invoked:
        raise ValueError(
            f"config file is for command {declared!r} but {invoked!r} was invoked"
        )
    channel = cfg_file.get("channel", {})
    optimizer = cfg_file.get("optimizer", {})
    if not (isinstance(channel, dict) and isinstance(optimizer, dict)):
        raise ValueError("config channel and optimizer blocks must be JSON objects")
    kind = channel.get("type")
    if kind is not None and kind != _CHANNEL_TYPES[invoked]:
        raise ValueError(
            f"config channel.type is {kind!r} but {invoked!r} works on "
            f"{_CHANNEL_TYPES[invoked]!r} channels"
        )
    flags = set(vars(args)) - {"command", "family", "config"}
    shared = argparse.ArgumentParser(add_help=False)
    _add_common(shared)
    _add_optimizer(shared)
    params = flags - set(vars(shared.parse_args([])))
    _reject_unknown(cfg_file, flags | set(_BLOCK_KEYS), "")
    _reject_unknown(channel, {"type"} | {_CHANNEL_KEYS.get(p, p) for p in params}, "channel ")
    _reject_unknown(optimizer, _OPTIMIZER_KEYS, "optimizer ")


def _run_capacity(args, cfg_file: dict) -> tuple[dict, int]:
    family = args.family
    d = int(_require(_pick(args, cfg_file, "d"), "--d"))
    if family == "depolarizing":
        lam = float(_require(_pick(args, cfg_file, "lam"), "--lambda"))
        report = capacity.report_depolarizing(d, lam)
        inputs = {"d": d, "lambda": lam}
    elif family == "periodic":
        lambdas = _require(_pick(args, cfg_file, "lambdas"), "--lambdas")
        report = capacity.report_periodic(d, lambdas)
        inputs = {"d": d, "lambdas": list(lambdas)}
    else:
        lambdas = _require(_pick(args, cfg_file, "lambdas"), "--lambdas")
        gammas = _pick(args, cfg_file, "gammas")
        report = capacity.report_convex(d, lambdas, gammas)
        inputs = {"d": d, "lambdas": list(lambdas)}
        if gammas is not None:
            inputs["gammas"] = list(gammas)
    seed = _pick(args, cfg_file, "seed")
    payload = _payload(f"capacity {family}", inputs, report.results_dict(),
                       seed=None if seed is None else int(seed))
    return payload, 0


def _run_verify(args, cfg_file: dict) -> tuple[dict, int]:
    family = args.family
    d = int(_require(_pick(args, cfg_file, "d"), "--d"))
    cfg, m, seed = _optimizer_config(args, cfg_file)
    inputs = {
        "d": d,
        "m": m,
        "restarts": cfg.restarts,
        "iters": cfg.iters,
        "tol": cfg.tol,
    }
    if family == "additivity":
        lam = float(_require(_pick(args, cfg_file, "lam"), "--lambda"))
        inputs["lambda"] = lam
        report = capacity.verify_additivity(d, lam, m, cfg)
    elif family == "theorem1":
        lambdas = _require(_pick(args, cfg_file, "lambdas"), "--lambdas")
        inputs["lambdas"] = list(lambdas)
        report = capacity.verify_theorem1(d, lambdas, m, cfg)
    else:
        lambdas = _require(_pick(args, cfg_file, "lambdas"), "--lambdas")
        gammas = _pick(args, cfg_file, "gammas")
        inputs["lambdas"] = list(lambdas)
        if gammas is not None:
            inputs["gammas"] = list(gammas)
        report = capacity.verify_theorem2(d, lambdas, gammas, m, cfg)
    payload = _payload(f"verify {family}", inputs, report.results_dict(), report.checks, seed=seed)
    return payload, 0 if report.passed else 1


def _run_sweep(args, cfg_file: dict) -> tuple[dict, int]:
    d = int(_require(_pick(args, cfg_file, "d"), "--d"))
    lo = float(_require(_pick(args, cfg_file, "lambda_from"), "--lambda-from"))
    hi = float(_require(_pick(args, cfg_file, "lambda_to"), "--lambda-to"))
    step = float(_require(_pick(args, cfg_file, "step"), "--step"))
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if lo > hi:
        raise ValueError(f"empty grid: lambda-from {lo} exceeds lambda-to {hi}")
    cp_lo = -1.0 / (d * d - 1)
    if lo < cp_lo - 1e-12 or hi > 1.0 + 1e-12:
        raise CPViolationError(d, lo if lo < cp_lo - 1e-12 else hi)
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    rows = []
    for k in range(count):
        lam = min(lo + k * step, 1.0)
        rows.append(
            {
                "lambda": lam,
                "s_min": capacity.s_min_depolarizing(d, lam),
                "chi_star": capacity.chi_star_depolarizing(d, lam),
            }
        )
    inputs = {"d": d, "lambda_from": lo, "lambda_to": hi, "step": step}
    seed = _pick(args, cfg_file, "seed")
    payload = _payload("sweep", inputs, {"rows": rows},
                       seed=None if seed is None else int(seed))
    return payload, 0


def _flatten(obj, prefix: str = "") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            items.extend(_flatten(value, f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for idx, value in enumerate(obj):
            items.extend(_flatten(value, f"{prefix}{idx}."))
    else:
        items.append((prefix[:-1], obj))
    return items


def _render(payload: dict, fmt: str, command: str) -> str:
    for key, value in _flatten(payload):
        if isinstance(value, float) and not math.isfinite(value):
            raise _NonFinite(f"{key} is {value}")
    if fmt == "json":
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command == "sweep":
        writer.writerow(["lambda", "s_min", "chi_star"])
        for row in payload["results"]["rows"]:
            writer.writerow([repr(row["lambda"]), repr(row["s_min"]), repr(row["chi_star"])])
    else:
        writer.writerow(["key", "value"])
        for key, value in _flatten(payload):
            writer.writerow([key, value if not isinstance(value, float) else repr(value)])
    return buf.getvalue()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg_file = _load_config(args.config)
        family = getattr(args, "family", None)
        invoked = args.command if family is None else f"{args.command} {family}"
        _check_config(cfg_file, args, invoked)
        if args.command == "capacity":
            payload, code = _run_capacity(args, cfg_file)
        elif args.command == "verify":
            payload, code = _run_verify(args, cfg_file)
        else:
            payload, code = _run_sweep(args, cfg_file)
        if args.timings or cfg_file.get("timings"):
            payload["timing_ms"] = (time.perf_counter() - started) * 1e3
        fmt = args.format or cfg_file.get("format") or "json"
        text = _render(payload, fmt, args.command)
    except (np.linalg.LinAlgError, _NonFinite) as err:
        # LinAlgError is a ValueError subclass, so it must be caught first
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return 3
    except (CPViolationError, CapabilityError, DimensionMismatchError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out = args.out or cfg_file.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
