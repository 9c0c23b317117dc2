import dataclasses
import json
import re

import numpy as np
import pytest

from chancap import capacity, channels, holevo, optimize
from chancap.cli import MAX_SWEEP_POINTS, main
from chancap.optimize import OptimizerConfig

CHI_HALF = 0.18872187554086717
PERIODIC_09_05 = 0.45116245921245546


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_depolarizing(capsys):
    code, out, _ = run(capsys, ["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "capacity depolarizing"
    assert payload["results"]["closed_form"] == pytest.approx(CHI_HALF, abs=1e-9)
    assert set(payload) == {"command", "inputs", "results", "checks", "timing_ms", "seed"}
    assert payload["timing_ms"] is None


def test_capacity_periodic(capsys):
    code, out, _ = run(capsys, ["capacity", "periodic", "--d", "2", "--lambdas", "0.9,0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["closed_form"] == pytest.approx(PERIODIC_09_05, abs=1e-9)


def test_capacity_convex(capsys):
    code, out, _ = run(
        capsys,
        ["capacity", "convex", "--d", "2", "--lambdas", "0.9,0.5", "--gammas", "0.3,0.7"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["closed_form"] == pytest.approx(CHI_HALF, abs=1e-9)


def test_capacity_cp_violation_exit_code(capsys):
    code, out, err = run(capsys, ["capacity", "depolarizing", "--d", "2", "--lambda", "-0.4"])
    assert code == 2
    assert out == ""
    assert "[-0.333333, 1]" in err


def test_byte_identical_output(capsys):
    argv = ["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_verify_byte_identical_output(capsys):
    argv = [
        "verify", "additivity", "--d", "2", "--lambda", "0.5",
        "--restarts", "2", "--iters", "60", "--m", "4", "--seed", "7",
    ]
    code, first, _ = run(capsys, argv)
    assert code == 0
    _, second, _ = run(capsys, argv)
    assert first == second
    payload = json.loads(first)
    assert payload["seed"] == 7
    assert all(check["pass"] for check in payload["checks"])
    assert payload["results"]["duality_gap"]["two_use"] >= 0.0


def test_verify_generates_and_reports_seed(capsys):
    argv = [
        "verify", "additivity", "--d", "2", "--lambda", "1.0",
        "--restarts", "1", "--iters", "300", "--m", "4",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert isinstance(json.loads(out)["seed"], int)


@pytest.mark.parametrize(
    "channel",
    [
        ["additivity", "--lambda", "0.5", "--restarts", "1", "--iters", "5", "--seed", "7"],
        ["theorem1", "--lambdas", "0.9,0.5", "--restarts", "1", "--iters", "5", "--seed", "7"],
        ["theorem2", "--lambdas", "0.9,0.5", "--restarts", "1", "--iters", "5", "--seed", "7"],
        ["theorem1", "--lambdas", "0.9,0.5", "--iters", "1", "--seed", "7"],
        ["theorem2", "--lambdas", "0.9,0.5", "--iters", "1", "--seed", "7"],
        ["theorem1", "--lambdas", "0.9,0.5", "--restarts", "1", "--iters", "5", "--seed", "0"],
        ["theorem2", "--lambdas", "0.9,0.5", "--restarts", "1", "--iters", "5", "--seed", "0"],
    ],
)
def test_crippled_budget_fails_low(capsys, channel):
    # no restart starts at the known optimum, so one restart of five
    # iterations, or 32 restarts of one, fall short of a closed form, the run
    # fails and its searches stop at the cap, unconverged
    argv = ["verify", channel[0], "--d", "2", *channel[1:]]
    code, out, _ = run(capsys, argv)
    payload = json.loads(out)
    failed = {c["name"]: c for c in payload["checks"] if not c["pass"]}
    assert code == 1 and failed
    assert payload["results"]["converged"] is False
    for check in failed.values():
        assert check["value"] < check["bound"] - check["tol"]
    if channel[channel.index("--iters") + 1] == "1":
        assert "two_use_reaches_closed_form" in failed


@pytest.mark.parametrize("seed", ["1", "2", "3", "7", "11", "42"])
@pytest.mark.parametrize(
    "channel",
    [["additivity", "--lambda", "0.5"], ["theorem1", "--lambdas", "0.9,0.5"],
     ["theorem2", "--lambdas", "0.9,0.5"]],
    ids=["additivity", "theorem1", "theorem2"],
)
def test_default_budget_converges(capsys, channel, seed):
    # at the default budget every search stops by its gap-and-gradient
    # rule before the cap, within a duality gap of 1e-6 bits
    code, out, _ = run(capsys, ["verify", channel[0], "--d", "2", *channel[1:], "--seed", seed])
    results = json.loads(out)["results"]
    assert code == 0
    assert results["converged"] is True
    assert max(results["duality_gap"].values()) < 1e-6


def test_verify_theorem1(capsys):
    argv = [
        "verify", "theorem1", "--d", "2", "--lambdas", "0.9,0.5",
        "--restarts", "2", "--iters", "150", "--seed", "3",
    ]
    code, out, _ = run(capsys, argv)
    payload = json.loads(out)
    assert code == 0
    assert payload["results"]["closed_form"] == pytest.approx(PERIODIC_09_05, abs=1e-9)
    assert payload["results"]["optimizer_value"] == pytest.approx(PERIODIC_09_05, abs=1e-3)
    gaps = payload["results"]["duality_gap"]
    assert set(gaps) == {"one_use", "two_use"} and min(gaps.values()) >= 0.0


def test_verify_theorem2(capsys):
    argv = [
        "verify", "theorem2", "--d", "2", "--lambdas", "0.9,0.5",
        "--gammas", "0.3,0.7", "--restarts", "2", "--iters", "150", "--seed", "3",
    ]
    code, out, _ = run(capsys, argv)
    payload = json.loads(out)
    assert code == 0
    assert payload["results"]["closed_form"] == pytest.approx(CHI_HALF, abs=1e-9)
    gaps = payload["results"]["duality_gap"]
    assert set(gaps) == {"one_use", "two_use"} and min(gaps.values()) >= 0.0


def test_sweep_endpoints(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--d", "2", "--lambda-from", "0", "--lambda-to", "1", "--step", "0.25"],
    )
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert len(rows) == 5
    assert rows[0]["lambda"] == 0.0 and rows[0]["chi_star"] == pytest.approx(0.0, abs=1e-12)
    assert rows[-1] == {"lambda": 1.0, "s_min": 0.0, "chi_star": 1.0}
    assert rows[2]["s_min"] == pytest.approx(0.8112781244591328, abs=1e-9)
    assert rows[2]["chi_star"] == pytest.approx(CHI_HALF, abs=1e-9)
    chis = [r["chi_star"] for r in rows]
    assert all(b >= a for a, b in zip(chis, chis[1:]))


def test_sweep_qutrit_endpoint(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--d", "3", "--lambda-from", "0", "--lambda-to", "1", "--step", "0.5"],
    )
    rows = json.loads(out)["results"]["rows"]
    assert code == 0
    assert rows[-1]["chi_star"] == pytest.approx(1.584962500721156, abs=1e-9)


def test_sweep_csv_format(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--d", "2", "--lambda-from", "0", "--lambda-to", "1", "--step", "0.5",
         "--format", "csv"],
    )
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "lambda,s_min,chi_star"
    assert len(lines) == 4
    assert lines[-1] == "1.0,0.0,1.0"


def test_sweep_rejects_bad_grid(capsys):
    code, _, err = run(
        capsys,
        ["sweep", "--d", "2", "--lambda-from", "0", "--lambda-to", "1", "--step", "-0.5"],
    )
    assert code == 2 and "step" in err
    code, _, err = run(
        capsys,
        ["sweep", "--d", "2", "--lambda-from", "-0.9", "--lambda-to", "1", "--step", "0.5"],
    )
    assert code == 2 and "completely positive" in err


@pytest.mark.parametrize("flag", ["--lambda-from", "--lambda-to", "--step"])
def test_sweep_rejects_nan(capsys, flag):
    argv = ["sweep", "--d", "2", "--lambda-from", "0", "--lambda-to", "1", "--step", "0.5"]
    argv[argv.index(flag) + 1] = "nan"
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be finite, got nan\n"


def test_sweep_rejects_grid_over_cap(capsys):
    # 111,112 points, just over the cap; rejected before any row is built
    argv = ["sweep", "--d", "2", "--lambda-from", "0", "--lambda-to", "1", "--step", "9e-6"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"more than {MAX_SWEEP_POINTS} points" in err


@pytest.mark.parametrize("d", ["1", "0"])
def test_sweep_rejects_small_dimension(capsys, d):
    argv = ["sweep", "--d", d, "--lambda-from", "0", "--lambda-to", "1", "--step", "0.5"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: dimension must be at least 2, got {d}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--lambda-from", "0.5", "--lambda-to", "0.2"], "empty grid: lambda-from 0.5 exceeds lambda-to 0.2"),
        (["--lambda-from", "0", "--lambda-to", "1.2"],
         "lambda=1.2 is not completely positive for d=2; admissible interval is [-0.333333, 1]"),
    ],
    ids=["reversed", "past-one"],
)
def test_sweep_rejects_bad_range(capsys, argv, message):
    code, out, err = run(capsys, ["sweep", "--d", "2", "--step", "0.1"] + argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("d", [10**200, 10**400], ids=["1e200", "1e400"])
@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "depolarizing", "--lambda", "0.5"],
        ["capacity", "periodic", "--lambdas", "0.5,0.9"],
        ["capacity", "convex", "--lambdas", "0.5,0.9"],
        ["sweep", "--lambda-from", "0", "--lambda-to", "1", "--step", "0.5"],
        ["verify", "additivity", "--lambda", "0.5"],
        ["verify", "theorem1", "--lambdas", "0.5,0.9"],
        ["verify", "theorem2", "--lambdas", "0.5,0.9"],
    ],
    ids=["capacity-depolarizing", "capacity-periodic", "capacity-convex", "sweep",
         "verify-additivity", "verify-theorem1", "verify-theorem2"],
)
def test_dimension_whose_bound_overflows_is_usage_error(capsys, argv, d):
    code, out, err = run(capsys, argv + ["--d", str(d)])
    assert code == 2 and out == ""
    assert err == f"error: dimension {d} is too large: -1/(d^2-1) overflows a double\n"


def test_missing_dimension_is_usage_error(capsys):
    code, _, err = run(capsys, ["capacity", "depolarizing", "--lambda", "0.5"])
    assert code == 2
    assert "--d" in err


@pytest.mark.parametrize("tol", ["0", "-0.5", "nan", "inf"])
def test_bad_tol_is_usage_error(capsys, tol):
    # the stop test uses fixed bounds on the duality gap and the tangent
    # gradient, and no --tol flag exists, so every --tol is rejected
    argv = ["verify", "additivity", "--d", "2", "--lambda", "0.5", "--seed", "7", "--tol", tol]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"],
        ["capacity", "periodic", "--d", "2", "--lambdas", "0.9,0.5"],
        ["capacity", "convex", "--d", "2", "--lambdas", "0.9,0.5"],
        ["sweep", "--d", "2", "--lambda-from", "0", "--lambda-to", "1", "--step", "0.25"],
    ],
    ids=["depolarizing", "periodic", "convex", "sweep"],
)
def test_closed_form_commands_take_no_seed(capsys, argv):
    # no random draw enters a closed form, so a seed is rejected, not echoed
    for seed in ("7", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", seed])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --seed" in captured.err
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["seed"] is None


def test_verify_negative_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(channels, "tensor_channels", None)  # refused before any channel
    argv = ["verify", "additivity", "--d", "2", "--lambda", "0.5", "--seed", "-1"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "channel,limit",
    [(["additivity", "--lambda", "0.5"], 16), (["theorem1", "--lambdas", "0.9,0.5"], 4),
     (["theorem2", "--lambdas", "0.9,0.5"], 4)],
)
def test_verify_m_above_input_dim_squared_is_usage_error(capsys, monkeypatch, channel, limit):
    # an optimal ensemble needs at most input dim squared states; m sizes the
    # search's arrays, so a larger one is refused before any start is drawn
    def fail(*args, **kwargs):
        raise AssertionError("search started before the m check")

    monkeypatch.setattr(optimize, "random_unit_vectors", fail)
    argv = ["verify", channel[0], "--d", "2", *channel[1:], "--m", str(limit + 1), "--seed", "7"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: ensemble size m must be between 1 and {limit},")


@pytest.mark.parametrize(
    "channel",
    [["additivity", "--lambda", "0.5"], ["theorem1", "--lambdas", "0.9,0.5"],
     ["theorem2", "--lambdas", "0.9,0.5"]],
)
def test_verify_refuses_two_use_over_cap_before_any_work(capsys, monkeypatch, channel):
    # two uses at d = 5 have input dimension 25 > 16: no channel is built and
    # no search runs
    def fail(*args, **kwargs):
        raise AssertionError("work done before the size check")

    monkeypatch.setattr(channels, "depolarizing", fail)
    monkeypatch.setattr(optimize, "_ascend", fail)
    code, out, err = run(capsys, ["verify", channel[0], "--d", "5", *channel[1:], "--seed", "7"])
    assert code == 2 and out == ""
    assert err == "error: input dimension 25 exceeds the desk-scale cap 16\n"


def test_numerical_failure_exit_code(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(capacity, "verify_additivity", fail)
    code, out, err = run(capsys, ["verify", "additivity", "--d", "2", "--lambda", "0.5", "--seed", "7"])
    assert code == 3
    assert out == ""
    assert err == "error: numerical failure: Eigenvalues did not converge\n"


def test_failed_cross_check_is_numerical_failure(capsys, monkeypatch):
    # a Kraus-form value that disagrees with the ascent's exits 3, unprinted
    chi = holevo.chi
    monkeypatch.setattr(holevo, "chi", lambda ch, ens: chi(ch, ens) + 1e-6)
    argv = ["verify", "additivity", "--d", "2", "--lambda", "0.5", "--restarts", "2", "--iters", "60",
            "--seed", "7"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: numerical failure: the Kraus form gives ")


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "periodic", "--d", "2", "--lambdas", "-0.2,0.5"],
        ["capacity", "depolarizing", "--d", "2", "--lambda", "-2e-1"],
        ["capacity", "convex", "--d", "3", "--lambdas", "-.1,0.5", "--gammas", ".3,.7"],
        ["sweep", "--d", "2", "--lambda-from", "-1e-1", "--lambda-to", "0.5", "--step", "0.1"],
    ],
)
def test_negative_value_after_space_parses_as_with_equals(capsys, argv):
    # argparse itself reads only plain negative decimals such as -0.2 as values
    tokens = iter(argv)
    joined = [f"{t}={next(tokens)}" if t.startswith("--") else t for t in tokens]
    code, out, err = run(capsys, argv)
    assert code == 0 and (code, out, err) == run(capsys, joined)


def test_config_file_provides_defaults(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"d": 2, "lambda": 0.5}))
    code, out, _ = run(capsys, ["capacity", "depolarizing", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["results"]["closed_form"] == pytest.approx(CHI_HALF, abs=1e-9)


def test_flags_override_config(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"d": 2, "lambda": 0.5}))
    code, out, _ = run(
        capsys, ["capacity", "depolarizing", "--config", str(path), "--lambda", "1.0"]
    )
    assert code == 0
    assert json.loads(out)["results"]["closed_form"] == pytest.approx(1.0, abs=1e-12)


def test_config_optimizer_settings(tmp_path, capsys):
    cfg = {"d": 2, "lambda": 0.5, "restarts": 2, "iters": 60, "seed": 7, "m": 4}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, ["verify", "additivity", "--config", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["restarts"] == 2
    assert payload["inputs"]["m"] == 4
    assert payload["seed"] == 7


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["capacity", "depolarizing", "--d", "2", "--lambda", "0.5", "--out", str(target)],
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["results"]["closed_form"] == pytest.approx(
        CHI_HALF, abs=1e-9
    )


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys,
        ["capacity", "depolarizing", "--d", "2", "--lambda", "0.5", "--out", str(target)],
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_timings_flag_adds_measurement(capsys):
    code, out, _ = run(
        capsys,
        ["capacity", "depolarizing", "--d", "2", "--lambda", "0.5", "--timings"],
    )
    assert code == 0
    assert json.loads(out)["timing_ms"] > 0


_SWEEP = ["sweep", "--d", "2", "--lambda-from", "0", "--lambda-to", "1", "--step", "0.5"]


@pytest.mark.parametrize(
    "flags,cfg",
    [
        (["--format", "csv", "--timings"], None),
        (["--format", "csv"], {"timings": True}),
        (["--timings"], {"format": "csv"}),
        ([], {"format": "csv", "timings": True}),
    ],
    ids=["flags", "config-timings", "config-format", "config-both"],
)
def test_sweep_csv_rejects_timings(tmp_path, capsys, flags, cfg):
    # the table has no place for the timing, which would be dropped
    if cfg is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        flags = flags + ["--config", str(path)]
    code, out, err = run(capsys, _SWEEP + flags)
    assert code == 2 and out == ""
    assert err.startswith("error: --timings ") and err.count("\n") == 1


def test_timings_kept_outside_the_sweep_csv(capsys):
    code, out, _ = run(capsys, _SWEEP + ["--timings"])
    assert code == 0 and json.loads(out)["timing_ms"] > 0
    argv = ["capacity", "depolarizing", "--d", "2", "--lambda", "0.5", "--format", "csv", "--timings"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and float(dict(line.split(",") for line in out.splitlines())["timing_ms"]) > 0


def test_config_sets_timings_and_out(tmp_path, capsys):
    target = tmp_path / "report.json"
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"d": 2, "lambda": 0.5, "timings": True, "out": str(target)}))
    code, out, err = run(capsys, ["capacity", "depolarizing", "--config", str(path)])
    assert (code, out, err) == (0, "", "")
    payload = json.loads(target.read_text())
    assert payload["timing_ms"] > 0
    assert payload["results"]["closed_form"] == pytest.approx(CHI_HALF, abs=1e-9)


def test_report_csv_flattening(capsys):
    code, out, _ = run(
        capsys,
        ["capacity", "depolarizing", "--d", "2", "--lambda", "0.5", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "results.closed_form" in keys


def test_threads_flag_is_gone(capsys):
    argv = ["verify", "additivity", "--d", "2", "--lambda", "0.5", "--seed", "7", "--threads", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("lambdas", ["0.9,,0.5", "0.9,0.5,", ",0.9", ""])
def test_empty_list_entry_is_usage_error(capsys, lambdas):
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "periodic", "--d", "2", f"--lambdas={lambdas}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--lambdas" in captured.err


@pytest.mark.parametrize("key", ["threadz", "threads"])
def test_config_unknown_optimizer_key(tmp_path, capsys, key):
    cfg = {"d": 2, "lambda": 0.5, "restarts": 1, "iters": 5, "seed": 7, key: 2}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, ["verify", "additivity", "--config", str(path)])
    assert code == 2 and out == ""
    assert key in err


# a config is one flat object of flag destinations, so a misspelt key, a
# nested block, a key naming the command or the channel family, and a key of
# a flag the command does not take are unknown
_SWEEP_CFG = {"d": 2, "lambda_from": 0, "lambda_to": 1, "step": 0.25}


@pytest.mark.parametrize(
    "command,cfg,key",
    [
        ("capacity depolarizing", {"d": 2, "lambda": 0.5, "lamda": 0.9}, "lamda"),
        ("capacity depolarizing", {"d": 2, "lambda": 0.5, "restart": 3}, "restart"),
        ("capacity depolarizing", {"d": 2, "lambda": 0.5, "fromat": "csv"}, "fromat"),
        ("capacity depolarizing", {"channel": {"d": 2, "lambda": 0.5}}, "channel"),
        ("capacity depolarizing", {"d": 2, "lambda": 0.5, "optimizer": {"seed": 7}}, "optimizer"),
        ("capacity depolarizing", {"d": 2, "lambda": 0.5, "command": "capacity depolarizing"},
         "command"),
        ("capacity depolarizing", {"d": 2, "lambda": 0.5, "type": "depolarizing"}, "type"),
        ("verify additivity", {"d": 2, "lambda": 0.5, "iters": 2, "tol": 1e-6}, "tol"),
        ("capacity depolarizing", {"d": 2, "lambda": 0.5, "seed": 7}, "seed"),
        ("sweep", dict(_SWEEP_CFG, seed=7), "seed"),
    ],
    ids=["lamda", "restart", "fromat", "channel", "optimizer", "command", "type", "tol",
         "seed-capacity", "seed-sweep"],
)
def test_config_unknown_key(tmp_path, capsys, command, cfg, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command.split() + ["--config", str(path)])
    assert code == 2 and out == ""
    assert re.search(rf"^error: unknown config key\(s\) {key};", err)


@pytest.mark.parametrize("gammas", ["nan,nan", "1.0", "0.3,0.3,0.4", "-0.5,1.5", "0.3,0.6", "1,0"])
def test_capacity_convex_rejects_bad_gammas(capsys, gammas):
    argv = ["capacity", "convex", "--d", "2", "--lambdas", "0.9,0.5", f"--gammas={gammas}"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "gamma" in err


def test_verify_theorem2_zero_gamma_is_usage_error(capsys, monkeypatch):
    # a branch of weight 0 is never applied, so the worst-branch target would
    # count a branch the channel does not have
    def fail(*args, **kwargs):
        raise AssertionError("search started with a zero gamma")

    monkeypatch.setattr(optimize, "_ascend", fail)
    argv = ["verify", "theorem2", "--d", "2", "--lambdas", "0.9,0.5", "--gammas", "0,1",
            "--seed", "7"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: gammas must be positive, got [0.0, 1.0]\n"


@pytest.mark.parametrize(
    "command,fmt",
    [("capacity", "json"), ("capacity", "csv"), ("sweep", "json"), ("sweep", "csv")],
    ids=["json", "csv", "sweep-json", "sweep-csv"],
)
def test_non_finite_report_is_numerical_failure(capsys, monkeypatch, command, fmt):
    if command == "capacity":
        def report(d, lam):
            return capacity.CapacityReport(closed_form=float("nan"))

        monkeypatch.setattr(capacity, "report_depolarizing", report)
        argv = ["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"]
        key = "results.closed_form"
    else:
        s_min = capacity.s_min_depolarizing

        def nan_at_half(d, lam):
            return float("nan") if lam == 0.5 else s_min(d, lam)

        monkeypatch.setattr(capacity, "s_min_depolarizing", nan_at_half)
        argv = ["sweep", "--d", "2", "--lambda-from", "0", "--lambda-to", "1", "--step", "0.25"]
        key = "results.rows.2.s_min"  # the grid is 0, 0.25, 0.5, 0.75, 1
    code, out, err = run(capsys, argv + ["--format", fmt])
    assert code == 3 and out == ""
    assert err == f"error: numerical failure: {key} is nan\n"


@pytest.mark.parametrize(
    "argv,cfg,key",
    [
        (["capacity", "depolarizing", "--d", "2"], {"lam": 0.5, "lambda": 0.9}, "lam"),
        (["capacity", "depolarizing", "--lambda", "0.5"], {"d": 2.7}, "d"),
        (["verify", "additivity", "--d", "2", "--lambda", "0.5"], {"seed": 1.5}, "seed"),
        (["capacity", "periodic", "--d", "2"], {"lambdas": [0.9, "x"]}, "lambdas"),
        (["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"], {"format": "xml"}, "format"),
        (["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"], {"timings": "no"}, "timings"),
        (["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"], {"out": 5}, "out"),
        (["capacity", "periodic", "--d", "2"], {"lambdas": "0.9,,0.5,"}, "lambdas"),
        (["capacity", "periodic", "--d", "2"], {"lambdas": [0.9, "", 0.5]}, "lambdas"),
        # a key repeated inside one object, given as raw JSON text
        (["capacity", "depolarizing"], '{"d": 2, "lambda": 0.5, "lambda": 0.9}', "lambda"),
        # a JSON value that is not an object
        (["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"], "[1]", "object"),
    ],
    ids=["lam", "d-float", "seed-float", "lambdas-text", "format", "timings", "out",
         "lambdas-empty-entry", "lambdas-empty-item", "lambda-repeated", "not-an-object"],
)
def test_config_rejects_bad_value(tmp_path, capsys, argv, cfg, key):
    path = tmp_path / "run.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    code, out, err = run(capsys, argv + ["--config", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(rf"\b{key}\b", err)


@pytest.mark.parametrize(
    "text,reason",
    [("", "Expecting value: line 1 column 1 (char 0)"),
     ('{"d": 2, "lambda"', "Expecting ':' delimiter: line 1 column 18 (char 17)")],
    ids=["empty", "truncated"],
)
def test_config_that_is_not_json_names_the_file(tmp_path, capsys, text, reason):
    path = tmp_path / "run.json"
    path.write_text(text)
    code, out, err = run(capsys, ["capacity", "depolarizing", "--config", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: config file {path} is not valid JSON: {reason}\n"


_COMMAND_IDS = ["capacity-depolarizing", "capacity-periodic", "capacity-convex",
                "verify-additivity", "verify-theorem1", "verify-theorem2", "sweep"]
_VERIFY_BUDGET = ["--restarts", "2", "--iters", "60", "--seed", "3"]


@pytest.mark.parametrize(
    "command,flags,fmt",
    [
        (["capacity", "depolarizing"], ["--d", "2", "--lambda", "0.5"], "json"),
        (["capacity", "periodic"], ["--d", "2", "--lambdas", "1,0"], "json"),
        (["capacity", "convex"], ["--d", "3", "--lambdas", "0.9,0.5", "--gammas", "0.3,0.7"],
         "csv"),
        (["verify", "additivity"], ["--d", "2", "--lambda", "0.5", "--m", "4", *_VERIFY_BUDGET],
         "json"),
        (["verify", "theorem1"], ["--d", "2", "--lambdas", "0.9,0.5", *_VERIFY_BUDGET], "json"),
        (["verify", "theorem2"], ["--d", "2", "--lambdas", "0.9,0.5", "--gammas", "0.3,0.7",
                                  *_VERIFY_BUDGET], "csv"),
        (["sweep"], ["--d", "2", "--lambda-from", "0", "--lambda-to", "1", "--step", "0.25"],
         "json"),
    ],
    ids=_COMMAND_IDS,
)
def test_config_matches_flags(tmp_path, capsys, command, flags, fmt):
    # a JSON report's inputs, plus its seed when set and the format, are a
    # config that reprints the report
    code, out, _ = run(capsys, command + flags)
    assert code == 0
    payload = json.loads(out)
    cfg = dict(payload["inputs"])
    if payload["seed"] is not None:
        cfg["seed"] = payload["seed"]
    if fmt == "csv":
        cfg["format"] = fmt
        code, out, _ = run(capsys, command + flags + ["--format", fmt])
        assert code == 0
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert run(capsys, command + ["--config", str(path)]) == (0, out, "")


_COMMON_FLAGS = {"--help", "--format", "--out", "--config", "--timings"}
_OPTIMIZER_FLAGS = {"--restarts", "--iters", "--m", "--seed"}


@pytest.mark.parametrize(
    "command,flags",
    [
        (["capacity", "depolarizing"], {"--d", "--lambda"}),
        (["capacity", "periodic"], {"--d", "--lambdas"}),
        (["capacity", "convex"], {"--d", "--lambdas", "--gammas"}),
        (["verify", "additivity"], {"--d", "--lambda"} | _OPTIMIZER_FLAGS),
        (["verify", "theorem1"], {"--d", "--lambdas"} | _OPTIMIZER_FLAGS),
        (["verify", "theorem2"], {"--d", "--lambdas", "--gammas"} | _OPTIMIZER_FLAGS),
        (["sweep"], {"--d", "--lambda-from", "--lambda-to", "--step"}),
    ],
    ids=_COMMAND_IDS,
)
def test_help_lists_declared_flags(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text)) == flags | _COMMON_FLAGS


# a value other than the default for every OptimizerConfig field
_BUDGET_VALUES = {"restarts": 3, "iters": 7, "seed": 11}


@pytest.mark.parametrize("family", ["additivity", "theorem1", "theorem2"])
def test_every_optimizer_setting_has_a_flag_and_config_key(tmp_path, capsys, monkeypatch, family):
    # each search setting reaches the search from its flag and from its
    # config key, so none is settable only from code
    names = [f.name for f in dataclasses.fields(OptimizerConfig)]
    budget = {name: _BUDGET_VALUES[name] for name in names}
    seen = []

    def verify(*args):
        seen.append(args[-1])
        return capacity.CapacityReport(closed_form=0.0)

    monkeypatch.setattr(capacity, f"verify_{family}", verify)
    channel = ["--d", "2"] + (["--lambda", "0.5"] if family == "additivity" else ["--lambdas", "0.9,0.5"])
    path = tmp_path / "run.json"
    path.write_text(json.dumps(budget))
    flags = [arg for name, value in budget.items() for arg in (f"--{name}", str(value))]
    for argv in (flags, ["--config", str(path)]):
        assert run(capsys, ["verify", family] + channel + argv)[0] == 0
    assert seen == [OptimizerConfig(**budget)] * 2
