#!/usr/bin/env python3
"""chancap benchmark: one closed-loop client per workload.

Run from the root of a chancap checkout:

    python3 perfbench/run.py --workload additivity --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times ops with tracing off and reports the
end-to-end metrics BENCHMARK.json lists; op times are on the reference
clock of speed.py, with plain wall times in the record.  With ``--trace 1`` it runs a
fixed window of ops twice, untraced and then traced, and reports the
per-layer metrics, with the tracing overhead as traced minus untraced
median op time.  Every op is checked against an oracle; reported values
and traced counts are also compared with earlier runs of the same code,
kept in ``.perfbench/`` in the checkout.

Stdout ends with a table, one JSON line ``{"record": ...}`` (environment,
seeds, every op's reported values, absent hooks) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 120


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_chancap(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "chancap", "__init__.py")):
        _fail(f"no chancap sources under {src}; run from the root of a chancap checkout")
    sys.path.insert(0, src)
    import chancap

    if not os.path.abspath(chancap.__file__).startswith(src + os.sep):
        _fail(f"imported chancap from {chancap.__file__}, not from {src}")
    return chancap


def _blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit(root: str):
    """HEAD of the checkout's own .git, if it has one (never a parent's)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _environment(chancap, root: str) -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "kernel_backend": getattr(chancap, "KERNEL_BACKEND", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
    }


def _code_hash(root: str, env: dict) -> str:
    """Digest of the package and benchmark sources plus the backend and
    library versions: runs with equal digests must report equal values."""
    h = hashlib.sha256(json.dumps([env["kernel_backend"], env["python"], env["numpy"]]).encode())
    files = sorted(glob.glob(os.path.join(root, "src", "chancap", "**", "*.py"), recursive=True))
    files += sorted(glob.glob(os.path.join(HERE, "*.py")))
    for path in files:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _ledger(root: str, workload: str, digest: str, entries: dict) -> set:
    """Compare entries with those earlier runs of the same code recorded,
    add the new ones, and return the keys whose values differ."""
    folder = os.path.join(root, ".perfbench")
    path = os.path.join(folder, f"ledger-{workload}-{digest}.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    entries = json.loads(json.dumps(entries))
    differing = {k for k, v in entries.items() if k in known and known[k] != v}
    if any(k not in known for k in entries):
        known.update({k: v for k, v in entries.items() if k not in known})
        os.makedirs(folder, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(known, fh)
        os.replace(tmp, path)
    return differing


def _setup_s(wl, root: str, env: dict) -> list:
    """Set-up seconds of fresh interpreters, measured inside each one."""
    from workloads import PROBE

    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, PROBE, *wl.setup_probe()],
            cwd=root, env=env, capture_output=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
        times.append(json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"])
    return times


def _p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _run_ops(wl, indices, traced: bool) -> list:
    from workloads import OpResult

    results = []
    for i in indices:
        t0 = time.perf_counter()
        try:
            results.append(wl.run_op(i, traced))
        except Exception as err:  # the op failed; the run goes on and reports it
            problem = f"{type(err).__name__}: {err}"
            wall = time.perf_counter() - t0
            results.append(OpResult(wall, wall, 0.0, f"{wl.name}:op={i}", None, [problem]))
    return results


def _timed_ops(wl, seconds: float) -> list:
    """Whole input cycles until both the time and the minimum op count are
    reached; a fixed-count workload runs its count instead."""
    if wl.fixed_count:
        return _run_ops(wl, range(wl.op_count(seconds)), False)
    results, i, t0 = [], 0, time.perf_counter()
    while True:
        results += _run_ops(wl, range(i, i + wl.cycle), False)
        i += wl.cycle
        if time.perf_counter() - t0 >= seconds and len(results) >= wl.min_ops:
            return results


def _timer(wl):
    """The speed clock's sampling timer, for workloads whose ops run here."""
    return wl.speed if wl.in_process else contextlib.nullcontext()


def _end_to_end(wl, args, root, env) -> tuple[list, dict, dict]:
    with _timer(wl):
        warm = _run_ops(wl, wl.warmup_ops(), False)
        results = _timed_ops(wl, args.seconds)
    peak = wl.peak_rss_mb()
    setup = _setup_s(wl, root, env)
    walls = [r.wall_s for r in results]
    refs = [r.ref_s for r in results]
    metrics = {
        "ref_wall_s": statistics.median(refs),
        "ref_wall_s.p90": _p90(refs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
        "wall_s": statistics.median(walls),
        "wall_s.p90": _p90(walls),
    }
    notes = {"ops_timed": len(results), "setup_s_samples": setup}
    return warm + results, metrics, notes


def _layer_metrics(wl, args, chancap) -> tuple[list, dict, dict]:
    import layers
    import probe
    from tracing import Tracer

    n = wl.op_count(args.seconds / 2)
    tracer = Tracer(clock=wl.speed.clock)
    with _timer(wl):
        warm = _run_ops(wl, wl.warmup_ops(), False)
        plain = _run_ops(wl, range(n), False)
        tracer.install(layers.HOOKS)
        try:
            traced = _run_ops(wl, range(n), True)
        finally:
            tracer.restore()

    metrics = layers.span_metrics(tracer, n, wl.d, wl.per_use)
    builds = []
    for _ in range(SETUP_REPEATS if wl.channel_spec() else 0):
        t0 = time.perf_counter()
        probe.build_channels(chancap, wl.channel_spec())
        builds.append(time.perf_counter() - t0)
    metrics["channels.build_s"] = statistics.median(builds) if builds else 0.0
    checks = [sum(c[2] for c in r.values["checks"]) for r in traced if isinstance(r.values, dict)]
    metrics["capacity.checks_passed"] = statistics.mean(checks) if checks else 0.0
    probes = [r.probe for r in traced if r.probe]
    for key in ("interp_s", "import_s", "modules_loaded", "main_s"):
        metrics[f"cli.{key}"] = statistics.median(p[key] for p in probes) if probes else 0.0
    metrics["process.cpu_s"] = statistics.mean(r.cpu_s for r in plain)
    untraced = statistics.median(r.ref_s for r in plain)
    metrics["trace.overhead_s"] = statistics.median(r.ref_s for r in traced) - untraced

    counts = layers.counts(tracer)
    counts["modules_loaded"] = [p["modules_loaded"] for p in probes]
    notes = {"ops_traced": n, "absent_hooks": tracer.absent, "counts": counts,
             "untraced_ref_wall_s": untraced}
    return warm + plain + traced, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chancap benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        _fail(f"cannot read BENCHMARK.json in {root}: {err}")
    chancap = _load_chancap(root)
    from speed import SpeedClock
    from workloads import WORKLOADS, child_env

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = _environment(chancap, root)
    digest = _code_hash(root, env)
    wl = WORKLOADS[args.workload](chancap, root, args.seed, SpeedClock())

    if args.trace:
        results, metrics, notes = _layer_metrics(wl, args, chancap)
        section = "per_layer"
    else:
        results, metrics, notes = _end_to_end(wl, args, root, child_env(root))
        section = "end_to_end"

    entries = {}
    for r in results:
        first = entries.setdefault(r.key, r.values)
        if r.values != first:
            r.problems.append("reported values differ from the same input's earlier op in this run")
    if args.trace:
        inputs = "" if wl.fixed_count else f":seed={args.seed}"
        entries[f"trace-counts{inputs}:ops={notes['ops_traced']}"] = notes["counts"]
    differing = _ledger(root, wl.name, digest, entries)
    for r in results:
        if r.key in differing:
            r.problems.append("reported values differ from an earlier run of the same code")
    problems = [f"{r.key}: {p}" for r in results for p in r.problems]
    problems += [f"{k}: traced counts differ from an earlier run of the same code"
                 for k in differing if k.startswith("trace-counts")]
    failed = sum(1 for r in results if r.problems)
    attempted = len(results)

    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[section]}
    print(f"{wl.name}  seed={args.seed}  trace={args.trace}  ops={attempted}")
    for name, m in out.items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    for name in sorted(set(metrics) - set(out)):
        print(f"  {name:<42} {metrics[name]:>14.6g} s (not bounded)")
    print(f"  {'fail_rate':<42} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "code_digest": digest,
        "fail_rate": failed / attempted,
        "unbounded": {k: v for k, v in metrics.items() if k not in out},
        "problems": problems[:20],
        **notes,
        "reported": {r.key: r.values for r in results},
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
