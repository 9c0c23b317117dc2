"""Command-line front end.

Subcommands: `capacity {depolarizing|periodic|convex}`,
`verify {additivity|theorem1|theorem2}`, and `sweep`.  Output is a JSON
report (or CSV with --format csv); exit code 0 on success, 1 when a
verification check fails, 2 on usage or validation errors (among them a --d
whose completely positive bound -1/(d^2-1) overflows a double, and --timings
with the sweep's CSV table, which has no place for the timing), 3 on a
numerical failure (an eigensolver that did not converge, a search whose
value the Kraus form does not reproduce, or a non-finite value in the
report).

Each command's flags are declared once, in `_COMMANDS` and the `_CHANNEL`,
`_OPTIMIZER` and `_COMMON` sets; the parser, the config file and the
report's `inputs` all follow them.  Only `verify` draws random numbers, so
only `verify` takes `--seed`; the other commands report `"seed": null`.  A
`--config` file holds one flat JSON object that fills the flags not given on
the command line; its keys are the invoked command's flag destinations, the
names the report's `inputs` uses, so a report's `inputs` plus its `seed`
(when set) is a valid config.  Each value is converted as the flag's own
text would be.  An unknown key, a key repeated in the object, or a value
the flag would reject exits 2 naming the key.

Determinism contract: the same flags and seed produce byte-identical
output.  Wall-clock timing is therefore reported only with --timings.

`capacity` and `sweep` evaluate closed forms and run on the standard library
alone; only `verify` imports numpy and the optimizer, when it runs, and
without numpy it exits 2.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
import time

from . import capacity
from .errors import CPViolationError
from .params import check_depolarizing


MAX_SWEEP_POINTS = 100_000  # most rows one sweep tabulates


class _NumericalFailure(ArithmeticError):
    """An eigensolver did not converge, a search's value failed its cross-check,
    or a report value is NaN or infinite."""


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
    "restarts": {"type": int, "help": "independent random starts of each search"},
    "iters": {"type": int, "help": "cap on each start's iterations, each moving every ensemble "
              "member and the probabilities; a start that converges stops sooner"},
    "seed": {"type": int},
    "m": {"type": int, "help": "ensemble size, at most and by default the input dim squared, "
          "of the two-use search in additivity and of the one-use search in "
          "theorem1/theorem2, whose two-use searches always use input dim squared"},
}
_COMMON = {
    "format": {"choices": ("json", "csv")},
    "out": {"metavar": "PATH"},
    "config": {"metavar": "FILE", "help": "JSON run config; explicit flags override file values"},
    "timings": {"action": "store_true",
                "help": "include wall-clock timing (breaks byte-identical output)"},
}

# command -> (its channel parameters in the order the capacity function
# takes them, that function's name)
_COMMANDS = {
    "capacity depolarizing": (("d", "lambda"), "report_depolarizing"),
    "capacity periodic": (("d", "lambdas"), "report_periodic"),
    "capacity convex": (("d", "lambdas", "gammas"), "report_convex"),
    "verify additivity": (("d", "lambda"), "verify_additivity"),
    "verify theorem1": (("d", "lambdas"), "verify_theorem1"),
    "verify theorem2": (("d", "lambdas", "gammas"), "verify_theorem2"),
    "sweep": (("d", "lambda_from", "lambda_to", "step"), None),
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
    flags = {name: _CHANNEL[name] for name in _COMMANDS[invoked][0]}
    if invoked.startswith("verify"):
        flags.update(_OPTIMIZER)
    flags.update(_COMMON)
    return flags


class _Parser(argparse.ArgumentParser):
    """Reads a token of "-" and a digit or "." as a value, not a flag, so
    `--lambdas -0.2,0.5` and `--lambda -2e-1` parse as their `=` forms do
    (argparse takes only plain negative decimals); no chancap flag starts so."""

    def _parse_optional(self, arg_string):
        if re.match(r"-[\d.]", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        raise ValueError(f"config key {key}: invalid value {json.dumps(value)} for {_flag(key)}")
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
        try:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as err:
            raise ValueError(f"config file {args.config} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    flags = _flags(args.invoked)
    del flags["config"]
    unknown = sorted(set(cfg) - set(flags))
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(unknown)}; known: {', '.join(sorted(flags))}"
        )
    for key, value in cfg.items():
        value = _config_value(key, flags[key], value)
        if getattr(args, key) is None:
            setattr(args, key, value)


def _payload(command: str, inputs: dict, results: dict, checks=(), seed=None) -> dict:
    """The report; `inputs` lists the values that were set or resolved."""
    return {
        "command": command,
        "inputs": {key: value for key, value in inputs.items() if value is not None},
        "results": results,
        "checks": [c.as_dict() for c in checks],
        "timing_ms": None,
        "seed": seed,
    }


def _sweep(d: int, lo: float, hi: float, step: float) -> dict:
    for name, value in (("lambda_from", lo), ("lambda_to", hi), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{_flag(name)} must be finite, got {value}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if lo > hi:
        raise ValueError(f"empty grid: lambda-from {lo} exceeds lambda-to {hi}")
    check_depolarizing(d, lo)  # row 0 is lo itself
    if hi > 1.0 + 1e-12:  # the last row is clamped to 1
        raise CPViolationError(d, hi)
    # the grid has floor(steps) + 1 points; steps is infinite for a tiny step
    steps = (hi - lo) / step + 1e-9
    if steps >= MAX_SWEEP_POINTS:
        raise ValueError(
            f"grid of more than {MAX_SWEEP_POINTS} points; raise --step or narrow the range"
        )
    count = math.floor(steps) + 1
    log_d = math.log2(d)
    rows = []
    for k in range(count):
        lam = min(lo + k * step, 1.0)
        s_min = capacity.s_min_depolarizing(d, lam)
        # chi* as capacity.chi_star_depolarizing computes it, without a second S_min
        rows.append({"lambda": lam, "s_min": s_min, "chi_star": log_d - s_min})
    return {"rows": rows}


def _run(args: argparse.Namespace) -> tuple[dict, int]:
    names, function = _COMMANDS[args.invoked]
    params = [getattr(args, name) for name in names]
    for name, value in zip(names, params):
        if value is None and name not in _OPTIONAL:
            raise ValueError(f"missing required value: {_flag(name)} (flag or config file)")
    inputs = dict(zip(names, params))
    if args.command == "sweep":
        if args.timings and args.format == "csv":
            raise ValueError("--timings needs the JSON report: the sweep's CSV table has no timing")
        return _payload(args.invoked, inputs, _sweep(*params)), 0
    if args.command == "capacity":
        report = getattr(capacity, function)(*params)
        return _payload(args.invoked, inputs, report.results_dict()), 0
    try:
        import numpy as np
    except ImportError as err:  # exit 2, not the failed-check code 1
        raise ValueError(f"verify needs numpy: {err}") from err

    from .optimize import OptimizerConfig

    budget = {key: getattr(args, key) for key in ("restarts", "iters", "seed")}
    cfg = OptimizerConfig(**{k: v for k, v in budget.items() if v is not None}).seeded()
    # "d" keeps its first place; the other channel parameters follow the budget
    inputs = {"d": args.d, "m": args.m, "restarts": cfg.restarts, "iters": cfg.iters, **inputs}
    try:
        report = getattr(capacity, function)(*params, args.m, cfg)
    # LinAlgError is a ValueError, which would exit 2; ArithmeticError is
    # also the optimizer's failed cross-check of its value
    except (np.linalg.LinAlgError, ArithmeticError) as err:
        raise _NumericalFailure(err) from err
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


def _finite(obj) -> bool:
    """Whether every float in `obj`, a nest of dicts, lists and tuples, is finite."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return True
    return all(map(_finite, obj))


def _render(payload: dict, fmt: str, command: str) -> str:
    if not _finite(payload):
        # the key paths are built only to name the first bad value
        key, value = next((key, value) for key, value in _flatten(payload)
                          if isinstance(value, float) and not math.isfinite(value))
        raise _NumericalFailure(f"{key} is {value}")
    if fmt == "json":
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    import csv  # a JSON report does not load it
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
    except _NumericalFailure as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:  # chancap's own errors are ValueErrors
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
