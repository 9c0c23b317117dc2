"""What importing chancap loads: the lazy export table, the closed-form CLI
commands running without numpy, and the README's library quick start and CLI
examples."""

import csv
import glob
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

import chancap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(chancap.__file__)))

# runs chancap.cli.main on its arguments in a fresh interpreter, then prints
# the exit code and whether numpy, dataclasses and inspect were loaded
_CLI = """
import io, sys
from contextlib import redirect_stdout
from chancap.cli import main
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *(name in sys.modules for name in ("numpy", "dataclasses", "inspect")))
"""


def _fresh(code: str, *args: str, path: str = "") -> str:
    # `path` goes before the sources, as a stand-in package such as `_without_numpy`'s
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [path, SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_SWEEP = ["sweep", "--d", "3", "--lambda-from", "0", "--lambda-to", "0.999", "--step", "0.001"]


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "depolarizing", "--d", "3", "--lambda", "0.37"],
        ["capacity", "periodic", "--d", "2", "--lambdas", "0.9,0.5,-0.2"],
        ["capacity", "convex", "--d", "2", "--lambdas", "0.9,0.5", "--gammas", "0.3,0.7"],
        _SWEEP + ["--format", "json"],
        _SWEEP + ["--format", "csv"],
    ],
)
def test_closed_form_commands_load_no_numpy(argv):
    # and only a CSV report loads csv
    loaded = _fresh(_CLI + 'print("csv" in sys.modules)\n', *argv).splitlines()
    assert loaded == ["0 False False False", str(argv[-1] == "csv")]


def test_verify_loads_numpy():
    argv = ["verify", "additivity", "--d", "2", "--lambda", "0.5", "--iters", "2", "--restarts", "1"]
    code, *loaded = _fresh(_CLI, *argv).split()
    assert loaded == ["True"] * 3 and code in ("0", "1")


def _without_numpy(tmp_path) -> str:
    """A directory whose numpy package fails to import: put first on the
    path, it stands in for an interpreter without numpy."""
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text('raise ImportError("numpy is unavailable")\n')
    return str(tmp_path)


def test_verify_without_numpy_is_usage_error(tmp_path):
    # the run exits 2 (usage), not 1 (a failed check)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_without_numpy(tmp_path), SRC]))
    argv = ["verify", "additivity", "--d", "2", "--lambda", "0.5", "--iters", "2"]
    proc = subprocess.run([sys.executable, "-m", "chancap", *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: verify needs numpy: numpy is unavailable\n"


def test_bare_import_loads_no_numpy_and_resolves_submodules_on_access():
    code = (
        "import sys, chancap\n"
        "print('numpy' in sys.modules, 'chancap.holevo' in sys.modules)\n"
        "print(chancap.params.__name__, chancap.holevo.__name__, chancap.optimize.__name__,"
        " chancap.capacity.__name__)\n"
    )
    assert _fresh(code).splitlines() == [
        "False False",
        "chancap.params chancap.holevo chancap.optimize chancap.capacity",
    ]


# looks up chancap.<name> in a fresh interpreter, then prints the chancap
# submodules loaded and whether numpy was
_LOADED_BY = (
    "import sys, chancap\n"
    "chancap.{}\n"
    "print(*sorted(m[8:] for m in sys.modules if m.startswith('chancap.')), 'numpy' in sys.modules)\n"
)


def test_a_closed_form_export_loads_only_its_module_and_no_numpy():
    assert _fresh(_LOADED_BY.format("chi_star_depolarizing")) == "capacity errors params False"


def test_a_channel_export_loads_neither_the_search_nor_the_closed_forms():
    loaded = set(_fresh(_LOADED_BY.format("depolarizing")).split())
    assert "channels" in loaded and not loaded & {"optimize", "holevo", "entropy", "capacity"}


def test_closed_forms_through_the_package_run_without_numpy(tmp_path):
    code = "import chancap\nprint(repr(chancap.capacity_convex_depolarizing(2, [0.9, 0.5])))\n"
    assert _fresh(code, path=_without_numpy(tmp_path)) == "0.18872187554086717"


def test_submodule_table_matches_the_package_files():
    # every module but the entry points is importable by attribute, and every
    # export names one of them
    stems = {os.path.basename(path)[:-3] for path in glob.glob(os.path.join(SRC, "chancap", "*.py"))}
    assert set(chancap._SUBMODULES) == stems - {"__init__", "__main__", "cli"}
    assert len(chancap._SUBMODULES) == len(set(chancap._SUBMODULES))
    assert set(chancap._EXPORTS.values()) <= set(chancap._SUBMODULES)


def test_every_export_is_its_defining_module_object():
    for name in chancap.__all__:
        value = getattr(chancap, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(chancap.__all__) <= set(dir(chancap))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from chancap import *", namespace)
    assert all(namespace[name] is getattr(chancap, name) for name in chancap.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chancap.no_such_name
    assert getattr(chancap, "KERNEL_BACKEND", None) is None


def test_readme_quick_start_runs():
    # the README's library example uses only exported names, and its claims hold
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    namespace = {}
    exec(block, namespace)
    assert namespace["rep"].passed


def test_readme_cli_examples_run(capsys):
    # each command of the README's CLI block exits 0 and prints a report
    from chancap.cli import main

    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    (block,) = re.findall(r"## CLI\n.*?```sh\n(.*?)```", text, re.S)
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(commands) == 7 and all(argv[0] == "chancap" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if argv[1] == "sweep":
            header, *rows = csv.reader(out.splitlines())
            assert header == ["lambda", "s_min", "chi_star"] and rows
            assert all(len(row) == 3 for row in rows)
            [float(x) for row in rows for x in row]  # every entry is a number
        else:
            assert json.loads(out)["command"] == " ".join(argv[1:3])
