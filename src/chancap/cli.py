"""Command-line front end.

Subcommands: `capacity {depolarizing|periodic|convex}`,
`verify {additivity|theorem1|theorem2}`, and `sweep`.  Output is a JSON
report (or CSV with --format csv); exit code 0 on success, 1 when a
verification check fails, 2 on usage or validation errors, 3 on a numerical
failure (an eigensolver that did not converge, or a non-finite value in the
report).

Each command's flags are declared once, in `_COMMANDS` and the `_CHANNEL`,
`_OPTIMIZER` and `_COMMON` sets; the parser, the config file and the
report's `inputs` all follow them.  A `--config` JSON file fills the flags
not given on the command line: a flag's destination may sit at the top
level, a channel parameter (and `type`) in a `channel` block, and
`restarts`, `iters`, `m`, `seed`, `tol` in an `optimizer` block.  Each value
is converted as the flag's own text would be.  An unknown key, a key set
twice (in one JSON object or in two blocks), or a value the flag would reject
exits 2 naming the key.

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

import numpy as np

from . import capacity
from .channels import DepolarizingParams
from .errors import CPViolationError
from .optimize import OptimizerConfig


class _NonFinite(ArithmeticError):
    """A report value is NaN or infinite."""


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated decimals, got {text!r}")


# add_argument keywords of each flag, by destination; `--lambda-from` is
# the flag of `lambda_from`
_CHANNEL = {
    "d": {"type": int},
    "lambda": {"type": float},
    "lambdas": {"type": _float_list},
    "gammas": {"type": _float_list},
    "lambda_from": {"type": float},
    "lambda_to": {"type": float},
    "step": {"type": float},
}
_OPTIONAL = ("gammas",)
_OPTIMIZER = {
    "restarts": {"type": int},
    "iters": {"type": int},
    "m": {"type": int, "help": "ensemble size (default: input dim squared) of the two-use "
          "search in additivity and of the one-use search in theorem1/theorem2, whose "
          "two-use searches always use input dim squared"},
    "tol": {"type": float, "help": "duality-gap stop (bits) of the final probability step"},
}
_COMMON = {
    "format": {"choices": ("json", "csv")},
    "out": {"metavar": "PATH"},
    "config": {"metavar": "FILE", "help": "JSON run config; explicit flags override file values"},
    "seed": {"type": int},
    "timings": {"action": "store_true",
                "help": "include wall-clock timing (breaks byte-identical output)"},
}
# keys a config file may also give in its optimizer block
_OPTIMIZER_BLOCK = ("restarts", "iters", "m", "seed", "tol")

# command -> (the channel.type it works on, its channel parameters in the
# order the capacity function takes them, that function's name)
_COMMANDS = {
    "capacity depolarizing": ("depolarizing", ("d", "lambda"), "report_depolarizing"),
    "capacity periodic": ("periodic", ("d", "lambdas"), "report_periodic"),
    "capacity convex": ("convex", ("d", "lambdas", "gammas"), "report_convex"),
    "verify additivity": ("depolarizing", ("d", "lambda"), "verify_additivity"),
    "verify theorem1": ("periodic", ("d", "lambdas"), "verify_theorem1"),
    "verify theorem2": ("convex", ("d", "lambdas", "gammas"), "verify_theorem2"),
    "sweep": ("depolarizing", ("d", "lambda_from", "lambda_to", "step"), None),
}
_HELP = {
    "capacity": "closed-form capacity of a channel",
    "verify": "compare the optimizer against the closed forms",
    "sweep": "tabulate S_min and chi* over a lambda grid",
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _flags(invoked: str) -> dict:
    """The invoked command's flags: destination -> add_argument keywords."""
    flags = {name: _CHANNEL[name] for name in _COMMANDS[invoked][1]}
    if invoked.startswith("verify"):
        flags.update(_OPTIMIZER)
    flags.update(_COMMON)
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chancap",
        description="Capacities of depolarizing-branch channels: closed forms, "
        "optimizer verification, parameter sweeps.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    families = {}
    for invoked in _COMMANDS:
        command, _, family = invoked.partition(" ")
        if not family:
            sp = top.add_parser(command, help=_HELP[command])
        else:
            if command not in families:
                group = top.add_parser(command, help=_HELP[command])
                families[command] = group.add_subparsers(dest="family", required=True)
            sp = families[command].add_parser(family)
        sp.set_defaults(invoked=invoked)
        for dest, spec in _flags(invoked).items():
            sp.add_argument(_flag(dest), default=None, **spec)
    return parser


def _config_value(key: str, spec: dict, value):
    """A config value converted as the flag's text would be."""
    if spec.get("action") == "store_true":
        if not isinstance(value, bool):
            raise ValueError(f"config key {key} must be a JSON boolean, got {json.dumps(value)}")
        return value
    if "type" not in spec and "choices" not in spec:
        if not isinstance(value, str):
            raise ValueError(f"config key {key} must be a JSON string, got {json.dumps(value)}")
        return value
    convert = spec.get("type", str)
    if convert is _float_list and isinstance(value, list):
        text = ",".join(map(str, value))
    else:
        text = str(value)
    try:
        converted = convert(text)
    except (ValueError, argparse.ArgumentTypeError):
        converted = None
    choices = spec.get("choices")
    if converted is None or (choices is not None and converted not in choices):
        flag = _flag(key.split(".")[-1])
        raise ValueError(f"config key {key}: invalid value {json.dumps(value)} for {flag}")
    return converted


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, rejecting a key it repeats."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"config key {key} is set twice in one JSON object")
        out[key] = value
    return out


def _apply_config(args: argparse.Namespace):
    """Fill the flags not given on the command line from the --config file."""
    if args.config is None:
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    declared = cfg.get("command", args.invoked)
    if declared != args.invoked:
        raise ValueError(
            f"config file is for command {declared!r} but {args.invoked!r} was invoked"
        )
    kind, params, _ = _COMMANDS[args.invoked]
    flags = _flags(args.invoked)
    del flags["config"]
    blocks = {
        "": {k: v for k, v in cfg.items() if k not in ("command", "channel", "optimizer")},
        "channel": cfg.get("channel", {}),
        "optimizer": cfg.get("optimizer", {}),
    }
    known = {
        "": set(flags),
        "channel": set(params) | {"type"},
        "optimizer": set(_OPTIMIZER_BLOCK) & set(flags),
    }
    seen = {}
    for where, block in blocks.items():
        if not isinstance(block, dict):
            raise ValueError(f"config key {where} must hold a JSON object")
        unknown = sorted(set(block) - known[where])
        if unknown:
            raise ValueError(
                f"unknown config {where + ' ' if where else ''}key(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known[where]))}"
            )
        for key, value in block.items():
            path = f"{where}.{key}" if where else key
            if key == "type":
                if value != kind:
                    raise ValueError(
                        f"config channel.type is {value!r} but {args.invoked!r} works on "
                        f"{kind!r} channels"
                    )
                continue
            if key in seen:
                raise ValueError(f"config key {key} is set twice, as {seen[key]} and {path}")
            seen[key] = path
            value = _config_value(path, flags[key], value)
            if getattr(args, key) is None:
                setattr(args, key, value)


def _payload(command: str, inputs: dict, results: dict, checks=(), seed=None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": [c.as_dict() for c in checks],
        "timing_ms": None,
        "seed": seed,
    }


def _sweep(d: int, lo: float, hi: float, step: float) -> dict:
    DepolarizingParams(d, 1.0)  # rejects d < 2 before the grid bounds divide by d*d - 1
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
    return {"rows": rows}


def _run(args: argparse.Namespace) -> tuple[dict, int]:
    _, names, function = _COMMANDS[args.invoked]
    params = [getattr(args, name) for name in names]
    for name, value in zip(names, params):
        if value is None and name not in _OPTIONAL:
            raise ValueError(f"missing required value: {_flag(name)} (flag or config file)")
    inputs = {name: value for name, value in zip(names, params) if value is not None}
    if args.command == "sweep":
        return _payload(args.invoked, inputs, _sweep(*params), seed=args.seed), 0
    if args.command == "capacity":
        report = getattr(capacity, function)(*params)
        return _payload(args.invoked, inputs, report.results_dict(), seed=args.seed), 0
    budget = {key: getattr(args, key) for key in ("restarts", "iters", "seed", "tol")}
    cfg = OptimizerConfig(**{k: v for k, v in budget.items() if v is not None}).seeded()
    # "d" keeps its first place; the other channel parameters follow the budget
    inputs = {"d": args.d, "m": args.m, "restarts": cfg.restarts, "iters": cfg.iters,
              "tol": cfg.tol, **inputs}
    report = getattr(capacity, function)(*params, args.m, cfg)
    payload = _payload(args.invoked, inputs, report.results_dict(), report.checks, seed=cfg.seed)
    return payload, 0 if report.passed else 1


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
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _apply_config(args)
        payload, code = _run(args)
        if args.timings:
            payload["timing_ms"] = (time.perf_counter() - started) * 1e3
        text = _render(payload, args.format or "json", args.command)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (np.linalg.LinAlgError, _NonFinite) as err:
        # LinAlgError is a ValueError subclass, so it must be caught first
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:  # chancap's own errors are ValueErrors
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
