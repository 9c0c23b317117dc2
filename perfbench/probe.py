"""Fresh-interpreter probes: set-up time and the traced CLI run.

Run with the checkout's ``src`` on PYTHONPATH:

    python3 perfbench/probe.py setup '<channel spec JSON>'
    python3 perfbench/probe.py setup-cli
    python3 perfbench/probe.py cli <chancap arguments...>

``setup`` times ``import chancap`` plus building the channels in the spec
and prints one JSON object.  ``setup-cli`` times ``import chancap.cli``.
``cli`` runs ``chancap.cli.main`` exactly as ``python -m chancap`` would,
leaving stdout and the exit code to the CLI, and writes its timings as the
last line of stderr.  Only the standard library is loaded before a timed
region starts, so the measured import includes numpy's.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def build_channels(chancap, spec):
    """Build every channel a workload needs from its JSON spec.

    Entries are ``["depolarizing", d, lam]``, ``["product", d, [la, lb]]``
    (two uses, one lambda per factor) and ``["convex", d, lambdas, gammas]``
    (the one-use and two-use convex combinations of depolarizing branches).
    """
    built = []
    for kind, d, *rest in spec:
        if kind == "depolarizing":
            built.append(chancap.depolarizing(d, rest[0]))
        elif kind == "product":
            built.append(chancap.tensor_channels([chancap.depolarizing(d, lam) for lam in rest[0]]))
        elif kind == "convex":
            lambdas, gammas = rest
            branches = tuple(chancap.depolarizing(d, lam) for lam in lambdas)
            doubled = tuple(chancap.tensor_channels([b, b]) for b in branches)
            built.append(chancap.ConvexCombinationChannel(branches, gammas))
            built.append(chancap.ConvexCombinationChannel(doubled, gammas))
        else:
            raise ValueError(f"unknown channel kind {kind!r}")
    return built


def main(argv):
    mode = argv[0]
    if mode == "setup":
        spec = json.loads(argv[1])
        t0 = time.perf_counter()
        import chancap

        t1 = time.perf_counter()
        build_channels(chancap, spec)
        t2 = time.perf_counter()
        print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0}))
        return 0
    if mode == "setup-cli":
        t0 = time.perf_counter()
        import chancap.cli  # noqa: F401

        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if mode == "cli":
        n0 = len(sys.modules)
        t0 = time.perf_counter()
        import chancap.cli

        t1 = time.perf_counter()
        n1 = len(sys.modules)
        code = chancap.cli.main(argv[1:])
        sys.stdout.flush()
        t2 = time.perf_counter()
        timings = {"start": T_START, "import_s": t1 - t0, "modules_loaded": n1 - n0, "main_s": t2 - t1}
        sys.stderr.write(json.dumps(timings) + "\n")
        return code
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
