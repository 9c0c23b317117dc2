import dataclasses
import json
import re

import numpy as np
import pytest

from chancap import capacity
from chancap.cli import main
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
    argv = ["capacity", "depolarizing", "--d", "2", "--lambda", "0.5", "--seed", "7"]
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
    assert payload["results"]["duality_gap"] >= 0.0


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
        ["additivity", "--lambda", "0.5"],
        ["theorem1", "--lambdas", "0.9,0.5"],
        ["theorem2", "--lambdas", "0.9,0.5"],
    ],
)
def test_crippled_budget_fails_low(capsys, channel):
    # no restart starts at the known optimum, so one restart of five sweeps
    # falls short of the closed form and the run fails
    argv = ["verify", channel[0], "--d", "2", *channel[1:],
            "--restarts", "1", "--iters", "5", "--seed", "7"]
    code, out, _ = run(capsys, argv)
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert code == 1 and failed
    for check in failed:
        assert check["value"] < check["bound"] - check["tol"]


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
    assert payload["results"]["duality_gap"] >= 0.0


def test_verify_theorem2(capsys):
    argv = [
        "verify", "theorem2", "--d", "2", "--lambdas", "0.9,0.5",
        "--gammas", "0.3,0.7", "--restarts", "2", "--iters", "150", "--seed", "3",
    ]
    code, out, _ = run(capsys, argv)
    payload = json.loads(out)
    assert code == 0
    assert payload["results"]["closed_form"] == pytest.approx(CHI_HALF, abs=1e-9)
    assert payload["results"]["duality_gap"] >= 0.0


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


@pytest.mark.parametrize("d", ["1", "0"])
def test_sweep_rejects_small_dimension(capsys, d):
    argv = ["sweep", "--d", d, "--lambda-from", "0", "--lambda-to", "1", "--step", "0.5"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: dimension must be at least 2, got {d}\n"


def test_missing_dimension_is_usage_error(capsys):
    code, _, err = run(capsys, ["capacity", "depolarizing", "--lambda", "0.5"])
    assert code == 2
    assert "--d" in err


@pytest.mark.parametrize("tol", ["0", "-0.5", "nan", "inf"])
def test_bad_tol_is_usage_error(capsys, tol):
    argv = ["verify", "additivity", "--d", "2", "--lambda", "0.5", "--seed", "7", "--tol", tol]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "tol" in err


def test_numerical_failure_exit_code(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(capacity, "verify_additivity", fail)
    code, out, err = run(capsys, ["verify", "additivity", "--d", "2", "--lambda", "0.5", "--seed", "7"])
    assert code == 3
    assert out == ""
    assert err == "error: numerical failure: Eigenvalues did not converge\n"


def test_config_file_provides_defaults(tmp_path, capsys):
    cfg = {
        "command": "capacity depolarizing",
        "channel": {"type": "depolarizing", "d": 2, "lambda": 0.5},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, ["capacity", "depolarizing", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["results"]["closed_form"] == pytest.approx(CHI_HALF, abs=1e-9)


def test_flags_override_config(tmp_path, capsys):
    cfg = {"channel": {"type": "depolarizing", "d": 2, "lambda": 0.5}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(
        capsys, ["capacity", "depolarizing", "--config", str(path), "--lambda", "1.0"]
    )
    assert code == 0
    assert json.loads(out)["results"]["closed_form"] == pytest.approx(1.0, abs=1e-12)


def test_config_command_mismatch(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": "sweep"}))
    code, _, err = run(capsys, ["capacity", "depolarizing", "--config", str(path),
                                "--d", "2", "--lambda", "0.5"])
    assert code == 2 and "sweep" in err


def test_config_optimizer_settings(tmp_path, capsys):
    cfg = {
        "channel": {"type": "depolarizing", "d": 2, "lambda": 0.5},
        "optimizer": {"restarts": 2, "iters": 60, "seed": 7, "m": 4, "tol": 1e-6},
    }
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
    cfg = {
        "channel": {"type": "depolarizing", "d": 2, "lambda": 0.5},
        "optimizer": {"restarts": 1, "iters": 5, "seed": 7, key: 2},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, ["verify", "additivity", "--config", str(path)])
    assert code == 2 and out == ""
    assert key in err


@pytest.mark.parametrize(
    "cfg,key",
    [
        ({"channel": {"type": "depolarizing", "d": 2, "lambda": 0.5, "lamda": 0.9}}, "lamda"),
        ({"channel": {"type": "depolarizing", "d": 2, "lambda": 0.5}, "restart": 3}, "restart"),
        ({"channel": {"type": "depolarizing", "d": 2, "lambda": 0.5}, "fromat": "csv"}, "fromat"),
    ],
    ids=["lamda", "restart", "fromat"],
)
def test_config_unknown_key(tmp_path, capsys, cfg, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, ["capacity", "depolarizing", "--config", str(path)])
    assert code == 2 and out == ""
    assert key in err


def test_config_channel_type_mismatch(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"channel": {"type": "convex", "d": 2, "lambda": 0.5}}))
    code, out, err = run(capsys, ["capacity", "depolarizing", "--config", str(path)])
    assert code == 2 and out == ""
    assert "channel.type" in err and "convex" in err


def test_config_channel_type_matching_family(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"channel": {"type": "periodic", "d": 2, "lambdas": [0.9, 0.5]}}))
    code, out, _ = run(capsys, ["capacity", "periodic", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["results"]["closed_form"] == pytest.approx(PERIODIC_09_05, abs=1e-9)


@pytest.mark.parametrize("gammas", ["nan,nan", "1.0", "0.3,0.3,0.4", "-0.5,1.5", "0.3,0.6"])
def test_capacity_convex_rejects_bad_gammas(capsys, gammas):
    argv = ["capacity", "convex", "--d", "2", "--lambdas", "0.9,0.5", f"--gammas={gammas}"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "gamma" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_report_is_numerical_failure(capsys, monkeypatch, fmt):
    def report(d, lam):
        return capacity.CapacityReport(closed_form=float("nan"))

    monkeypatch.setattr(capacity, "report_depolarizing", report)
    argv = ["capacity", "depolarizing", "--d", "2", "--lambda", "0.5", "--format", fmt]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err == "error: numerical failure: results.closed_form is nan\n"


@pytest.mark.parametrize(
    "argv,cfg,key",
    [
        (["capacity", "depolarizing", "--d", "2"], {"lam": 0.5, "channel": {"lambda": 0.9}}, "lam"),
        (["capacity", "depolarizing", "--lambda", "0.5"], {"d": 3, "channel": {"d": 2}}, "d"),
        (["verify", "additivity", "--d", "2", "--lambda", "0.5", "--iters", "5", "--seed", "7"],
         {"restarts": 3, "optimizer": {"restarts": 1}}, "restarts"),
        (["capacity", "depolarizing", "--lambda", "0.5"], {"d": 2.7}, "d"),
        (["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"], {"seed": 1.5}, "seed"),
        (["capacity", "periodic", "--d", "2"], {"lambdas": [0.9, "x"]}, "lambdas"),
        (["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"], {"format": "xml"}, "format"),
        (["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"], {"timings": "no"}, "timings"),
        (["capacity", "depolarizing", "--d", "2", "--lambda", "0.5"], {"out": 5}, "out"),
        (["capacity", "periodic", "--d", "2"], {"lambdas": "0.9,,0.5,"}, "lambdas"),
        (["capacity", "periodic", "--d", "2"], {"lambdas": [0.9, "", 0.5]}, "lambdas"),
        # a key repeated inside one object, given as raw JSON text
        (["capacity", "depolarizing"], '{"d": 2, "lambda": 0.5, "lambda": 0.9}', "lambda"),
        (["capacity", "depolarizing"], '{"channel": {"d": 2, "lambda": 0.5, "lambda": 0.9}}', "lambda"),
    ],
    ids=["lam", "d-twice", "restarts-twice", "d-float", "seed-float", "lambdas-text",
         "format", "timings", "out", "lambdas-empty-entry", "lambdas-empty-item",
         "lambda-repeated", "channel-lambda-repeated"],
)
def test_config_rejects_bad_value(tmp_path, capsys, argv, cfg, key):
    path = tmp_path / "run.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    code, out, err = run(capsys, argv + ["--config", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(rf"\b{key}\b", err)


_COMMAND_IDS = ["capacity-depolarizing", "capacity-periodic", "capacity-convex",
                "verify-additivity", "verify-theorem1", "verify-theorem2", "sweep"]
_VERIFY_BUDGET = {"restarts": 2, "iters": 60, "seed": 3}


@pytest.mark.parametrize(
    "command,flags,cfg",
    [
        (["capacity", "depolarizing"], ["--d", "2", "--lambda", "0.5"],
         {"channel": {"type": "depolarizing", "d": 2, "lambda": 0.5}}),
        (["capacity", "periodic"], ["--d", "2", "--lambdas", "1,0", "--seed", "4"],
         {"command": "capacity periodic", "channel": {"d": 2, "lambdas": [1, 0]},
          "optimizer": {"seed": 4}}),
        (["capacity", "convex"],
         ["--d", "3", "--lambdas", "0.9,0.5", "--gammas", "0.3,0.7", "--format", "csv"],
         {"d": 3, "lambdas": [0.9, 0.5], "gammas": [0.3, 0.7], "format": "csv"}),
        (["verify", "additivity"],
         ["--d", "2", "--lambda", "0.5", "--restarts", "2", "--iters", "60", "--m", "4", "--seed", "3"],
         {"channel": {"type": "depolarizing", "d": 2, "lambda": 0.5},
          "optimizer": {**_VERIFY_BUDGET, "m": 4}}),
        (["verify", "theorem1"],
         ["--d", "2", "--lambdas", "0.9,0.5", "--restarts", "2", "--iters", "60", "--seed", "3",
          "--tol", "1e-4"],
         {"d": 2, "lambdas": [0.9, 0.5], "optimizer": {**_VERIFY_BUDGET, "tol": 1e-4}}),
        (["verify", "theorem2"],
         ["--d", "2", "--lambdas", "0.9,0.5", "--gammas", "0.3,0.7", "--restarts", "2",
          "--iters", "60", "--seed", "3", "--format", "csv"],
         {"channel": {"type": "convex", "d": 2, "lambdas": [0.9, 0.5], "gammas": [0.3, 0.7]},
          **_VERIFY_BUDGET, "format": "csv"}),
        (["sweep"], ["--d", "2", "--lambda-from", "0", "--lambda-to", "1", "--step", "0.25"],
         {"channel": {"d": 2, "lambda_from": 0, "lambda_to": 1, "step": 0.25}}),
    ],
    ids=_COMMAND_IDS,
)
def test_config_matches_flags(tmp_path, capsys, command, flags, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    by_flags = run(capsys, command + flags)
    by_config = run(capsys, command + ["--config", str(path)])
    assert by_flags[0] == 0 and by_flags[1] != ""
    assert by_config == by_flags


_COMMON_FLAGS = {"--help", "--format", "--out", "--config", "--seed", "--timings"}
_OPTIMIZER_FLAGS = {"--restarts", "--iters", "--m", "--tol"}


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
_BUDGET_VALUES = {"restarts": 3, "iters": 7, "seed": 11, "tol": 1e-3}


@pytest.mark.parametrize("family", ["additivity", "theorem1", "theorem2"])
def test_every_optimizer_setting_has_a_flag_and_config_key(tmp_path, capsys, monkeypatch, family):
    # each search setting reaches the search from its flag and from the
    # optimizer config block, so none is settable only from code
    names = [f.name for f in dataclasses.fields(OptimizerConfig)]
    budget = {name: _BUDGET_VALUES[name] for name in names}
    seen = []

    def verify(*args):
        seen.append(args[-1])
        return capacity.CapacityReport(closed_form=0.0)

    monkeypatch.setattr(capacity, f"verify_{family}", verify)
    channel = ["--d", "2"] + (["--lambda", "0.5"] if family == "additivity" else ["--lambdas", "0.9,0.5"])
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"optimizer": budget}))
    flags = [arg for name, value in budget.items() for arg in (f"--{name}", str(value))]
    for argv in (flags, ["--config", str(path)]):
        assert run(capsys, ["verify", family] + channel + argv)[0] == 0
    assert seen == [OptimizerConfig(**budget)] * 2
