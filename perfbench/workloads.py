"""The four workloads: inputs made from the seed before timing, one op at a
time, each op checked against oracle.py.

Each workload is a single closed-loop client: the next op starts when the
previous one has returned.  ``additivity`` and ``maximin`` run in this
process; ``holevo-eval`` too; ``cli-cold`` starts one fresh interpreter per
op.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import oracle
import probe

CHILD_TIMEOUT_S = 120
VALUE_TOL = 1e-9
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")


def child_env(root: str) -> dict:
    """This environment with the checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class OpResult:
    """One op: wall, reference-speed (see speed.py) and CPU seconds, an input
    id, the values it reported, and what failed (empty when the op passed).
    ``probe`` holds the child's own timings on traced CLI ops."""

    wall_s: float
    ref_s: float
    cpu_s: float
    key: str
    values: object
    problems: list = field(default_factory=list)
    probe: dict | None = None


class Workload:
    name = ""
    nominal_op_s = 1.0  # turns --seconds into an op count (search runs, traced windows)
    cycle = 1  # ops per input cycle; timed runs stop on a whole cycle
    min_ops = 1
    fixed_count = False  # op count from --seconds instead of the clock
    in_process = True  # ops run here, under the speed clock's timer
    d: int | None = None  # single-use dimension, for restart shortfalls
    per_use: float | None = None  # single-use closed form, same purpose

    def __init__(self, chancap, root: str, seed: int, speed):
        self.chancap = chancap
        self.root = root
        self.seed = seed
        self.speed = speed

    def warmup_ops(self) -> range:
        return range(0) if self.fixed_count else range(self.cycle)

    def op_count(self, seconds: float) -> int:
        n = max(1, round(seconds / self.nominal_op_s))
        return -(-n // self.cycle) * self.cycle

    def channel_spec(self) -> list:
        return []

    def setup_probe(self) -> list:
        return ["setup", json.dumps(self.channel_spec())]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_op(self, i: int, traced: bool) -> OpResult:
        raise NotImplementedError


class _Search(Workload):
    """One op is one seeded verify call (optimizer seed 0), in every run.
    The work of one call varies about 2x across optimizer seeds, which would
    swamp run-to-run noise, so --seed does not change it; repeating one call
    lets the median reject a slow op and checks that its answer repeats."""

    fixed_count = True
    opt_seed = 0

    def __init__(self, chancap, root, seed, speed):
        super().__init__(chancap, root, seed, speed)
        self.cfg = self.config(self.opt_seed)

    def run_op(self, i, traced):
        cfg, speed = self.cfg, self.speed
        c0, t0, r0 = time.process_time(), speed.clock(), speed.ref_clock()
        report = self.call(cfg)
        wall, ref, cpu = speed.clock() - t0, speed.ref_clock() - r0, time.process_time() - c0
        problems = [f"check {c.name} failed (value {c.value!r})" for c in report.checks if not c.passed]
        if abs(report.closed_form - self.closed_form) > VALUE_TOL:
            problems.append(f"closed form {report.closed_form!r} != oracle {self.closed_form!r}")
        if abs(report.gap - (report.optimizer_value - report.closed_form)) > 1e-12:
            problems.append("gap != optimizer_value - closed_form")
        values = {
            "seed": cfg.seed,
            "gap": report.gap,
            "optimizer_value": report.optimizer_value,
            "checks": [[c.name, c.value, bool(c.passed)] for c in report.checks],
        }
        return OpResult(wall, ref, cpu, f"{self.name}:seed={cfg.seed}", values, problems)


class Additivity(_Search):
    """verify_additivity(2, 0.5, m=16) with 4 restarts x 2000 sweeps."""

    name = "additivity"
    nominal_op_s = 14.0
    d, lam, m = 2, 0.5, 16

    def __init__(self, chancap, root, seed, speed):
        super().__init__(chancap, root, seed, speed)
        self.per_use = oracle.chi_star(self.d, self.lam)
        self.closed_form = 2.0 * self.per_use

    def config(self, i):
        return self.chancap.OptimizerConfig(restarts=4, iters=2000, seed=i)

    def call(self, cfg):
        return self.chancap.verify_additivity(self.d, self.lam, self.m, cfg)

    def channel_spec(self):
        return [["product", self.d, [self.lam, self.lam]]]


class Maximin(_Search):
    """verify_theorem2(2, [0.9, 0.5], [0.3, 0.7]) with 4 restarts x 300
    sweeps: the min-mode objective on dims 2 and 4."""

    name = "maximin"
    nominal_op_s = 7.7
    d, lambdas, gammas = 2, [0.9, 0.5], [0.3, 0.7]

    def __init__(self, chancap, root, seed, speed):
        super().__init__(chancap, root, seed, speed)
        self.per_use = oracle.convex_capacity(self.d, self.lambdas)
        self.closed_form = self.per_use

    def config(self, i):
        return self.chancap.OptimizerConfig(restarts=4, iters=300, seed=i)

    def call(self, cfg):
        return self.chancap.verify_theorem2(self.d, self.lambdas, self.gammas, None, cfg)

    def channel_spec(self):
        return [["convex", self.d, self.lambdas, self.gammas]]


def _random_state(rng, d: int) -> np.ndarray:
    rank = int(rng.integers(1, d + 1))
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _random_povm(rng, d: int) -> list:
    raw = []
    for _ in range(d + 1):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        raw.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(raw))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ r @ inv_sqrt for r in raw]


class HolevoEval(Workload):
    """One op evaluates chi, chi_via_relative_entropy and
    mutual_information on one (channel, mixed ensemble, POVM) triple.  The
    pool holds every (d, m) in {2, 3, 4 = two-use qubit} x {1..4} four
    times with seeded parameters, so its cost mix is the same for every
    seed."""

    name = "holevo-eval"
    nominal_op_s = 0.0022
    replicas = 4

    def __init__(self, chancap, root, seed, speed):
        super().__init__(chancap, root, seed, speed)
        rng = np.random.default_rng(seed)
        self.spec, raw = [], []
        for _ in range(self.replicas):
            for dim in (2, 3, 4):
                for m in (1, 2, 3, 4):
                    if dim == 4:
                        factor, lambdas = 2, [float(rng.uniform(-1 / 3, 1)) for _ in range(2)]
                        self.spec.append(["product", factor, lambdas])
                    else:
                        factor, lambdas = dim, [float(rng.uniform(-1 / (dim * dim - 1), 1))]
                        self.spec.append(["depolarizing", dim, lambdas[0]])
                    rhos = [_random_state(rng, dim) for _ in range(m)]
                    probs = rng.dirichlet(np.ones(m))
                    povm = _random_povm(rng, dim)
                    outs = [oracle.depolarize(r, factor, lambdas) for r in rhos]
                    expected = (oracle.holevo(probs, outs), oracle.mutual_information(probs, outs, povm))
                    raw.append((rhos, probs, povm, expected))
        channels = probe.build_channels(chancap, self.spec)
        self.items = [
            (ch, chancap.Ensemble(probs, tuple(chancap.DensityMatrix(r) for r in rhos)),
             chancap.Povm(tuple(povm)), expected)
            for ch, (rhos, probs, povm, expected) in zip(channels, raw)
        ]
        self.cycle = len(self.items)
        self.holevo = chancap.holevo

    def channel_spec(self):
        return self.spec

    def run_op(self, i, traced):
        idx = i % len(self.items)
        ch, ens, povm, (chi_ref, mi_ref) = self.items[idx]
        holevo, speed = self.holevo, self.speed
        c0, t0, r0 = time.process_time(), speed.clock(), speed.ref_clock()
        chi = holevo.chi(ch, ens)
        rel = holevo.chi_via_relative_entropy(ch, ens)
        mi = holevo.mutual_information(ch, ens, povm)
        wall, ref, cpu = speed.clock() - t0, speed.ref_clock() - r0, time.process_time() - c0
        problems = []
        if abs(chi - chi_ref) > VALUE_TOL:
            problems.append(f"chi {chi!r} != oracle {chi_ref!r}")
        if abs(chi - rel) > VALUE_TOL:
            problems.append(f"chi {chi!r} != relative-entropy form {rel!r}")
        if abs(mi - mi_ref) > VALUE_TOL:
            problems.append(f"mutual information {mi!r} != oracle {mi_ref!r}")
        if mi > chi + VALUE_TOL:
            problems.append(f"mutual information {mi!r} exceeds chi {chi!r}")
        return OpResult(wall, ref, cpu, f"{self.name}:seed={self.seed}#{idx}", [chi, rel, mi], problems)


def _children_usage():
    return resource.getrusage(resource.RUSAGE_CHILDREN)


class CliCold(Workload):
    """One op is one fresh ``python -m chancap`` process.  A cycle runs
    ``capacity depolarizing|periodic|convex`` and a 1000-point ``sweep`` in
    json and csv, then the same five again.  An op reports the digest of its
    output, so repeated commands must print byte-identical output."""

    name = "cli-cold"
    nominal_op_s = 0.29
    min_ops = 100
    cycles = 8
    in_process = False  # the speed is sampled before each op, not by timer

    def __init__(self, chancap, root, seed, speed):
        super().__init__(chancap, root, seed, speed)
        rng = np.random.default_rng(seed)
        self.commands = []
        for _ in range(self.cycles):
            d = int(rng.integers(2, 5))
            lo = -1.0 / (d * d - 1) + 1e-6

            def lam():
                return round(float(rng.uniform(lo, 1.0 - 1e-6)), 6)

            one, three, two = lam(), [lam() for _ in range(3)], [lam() for _ in range(2)]
            gamma = round(float(rng.uniform(0.05, 0.95)), 6)
            start, step = round(float(rng.uniform(lo + 1e-4, 0.5)), 4), 0.0005
            stop = start + 999 * step
            sweep = ["sweep", f"--d={d}", f"--lambda-from={start!r}", f"--lambda-to={stop!r}", f"--step={step!r}"]
            self.commands += [
                (["capacity", "depolarizing", f"--d={d}", f"--lambda={one!r}", "--format=json"],
                 ("depolarizing", d, one)),
                (["capacity", "periodic", f"--d={d}", "--lambdas=" + ",".join(map(repr, three)), "--format=json"],
                 ("periodic", d, three)),
                (["capacity", "convex", f"--d={d}", "--lambdas=" + ",".join(map(repr, two)),
                  f"--gammas={gamma!r},{1.0 - gamma!r}", "--format=json"], ("convex", d, two)),
                (sweep + ["--format=json"], ("sweep-json", d, (start, step))),
                (sweep + ["--format=csv"], ("sweep-csv", d, (start, step))),
            ]
        self.per_cycle = len(self.commands) // self.cycles
        self.cycle = 2 * self.per_cycle
        self.env = child_env(root)

    def warmup_ops(self):
        return range(self.per_cycle)  # each command of the first cycle once

    def setup_probe(self):
        return ["setup-cli"]

    def peak_rss_mb(self):
        return _children_usage().ru_maxrss / 1024.0

    def run_op(self, i, traced):
        # op i of a cycle runs command i mod per_cycle, so each command's
        # two runs are a few ops apart
        idx = (i // self.cycle % self.cycles) * self.per_cycle + i % self.per_cycle
        args, expect = self.commands[idx]
        if traced:
            argv = [sys.executable, PROBE, "cli", *args]
        else:
            argv = [sys.executable, "-m", "chancap", *args]
        self.speed.sample()
        before = _children_usage()
        r0 = self.speed.ref_clock()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        wall = time.perf_counter() - t0
        ref = self.speed.ref_clock() - r0
        after = _children_usage()
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        digest = hashlib.sha256(out).hexdigest()
        problems = []
        timings = None
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}: {err.decode(errors='replace')[-300:]}")
        else:
            problems += _check_cli(out.decode(), expect)
            if traced:
                timings = json.loads(err.decode().strip().splitlines()[-1])
                timings["interp_s"] = timings.pop("start") - t0
        return OpResult(wall, ref, cpu, f"{self.name}:seed={self.seed}#{idx}", digest, problems, timings)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_TOL


def _check_cli(text: str, expect) -> list:
    kind, d, params = expect
    if kind == "sweep-csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["lambda", "s_min", "chi_star"]:
            return [f"unexpected csv header {rows[0]!r}"]
        table = [[float(x) for x in row] for row in rows[1:]]
    else:
        payload = json.loads(text)
        results = payload["results"]
        if kind == "sweep-json":
            table = [[r["lambda"], r["s_min"], r["chi_star"]] for r in results["rows"]]
        else:
            reference = {
                "depolarizing": oracle.chi_star,
                "periodic": oracle.periodic_capacity,
                "convex": oracle.convex_capacity,
            }[kind](d, params)
            if not _close(results["closed_form"], reference):
                return [f"closed form {results['closed_form']!r} != oracle {reference!r}"]
            return []
    start, step = params
    if len(table) != 1000:
        return [f"sweep has {len(table)} rows, expected 1000"]
    for k, (lam, s, c) in enumerate(table):
        if not (_close(lam, start + k * step) and _close(s, oracle.s_min(d, lam)) and _close(c, oracle.chi_star(d, lam))):
            return [f"sweep row {k} {(lam, s, c)!r} disagrees with the oracle"]
    return []


WORKLOADS = {w.name: w for w in (Additivity, Maximin, CliCold, HolevoEval)}
