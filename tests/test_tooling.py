"""The benchmark's tracer and workloads, and every module's __all__, name
program objects that exist; scipy's expm has only its known callers; scipy
loads only in the commands that call it."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import qsdecert
import qsdecert.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{attr}" for _, mod, attr in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"qsdecert.{mod}"), attr, None))
    ]
    assert missing == []
    # perfbench/workloads.py passes the CLI's row pool to ae_certificate_table
    assert callable(qsdecert.cli._pool_map)


def test_tracer_reaches_nelder_mead():
    # perfbench/tracing.py wraps the searches' Nelder-Mead at this path.
    states = importlib.import_module("qsdecert.states")
    assert states.scipy.optimize.minimize is importlib.import_module("scipy.optimize").minimize


def test_every_exported_name_resolves():
    modules = [qsdecert] + [
        importlib.import_module(f"qsdecert.{info.name}")
        for info in pkgutil.iter_modules(qsdecert.__path__)
    ]
    missing = [
        f"{mod.__name__}.{name}" for mod in modules
        for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)
    ]
    assert missing == []


def test_readme_command_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
                if line.startswith("qsdecert ")]
    assert len(commands) >= 11
    parser = qsdecert.cli._parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on a flag the command does not take


def test_scipy_expm_only_in_known_modules():
    # operators.matexp flushes subnormals from its squarings; states._expm is
    # the search's small-matrix exponential. Any other caller of scipy's expm
    # would bypass matexp.
    src = Path(qsdecert.__file__).resolve().parent
    callers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (isinstance(node, ast.Attribute) and node.attr == "expm") or (
                isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy")
                and any(alias.name == "expm" for alias in node.names)
            )
            if named:
                callers.add(path.name)
    assert callers == {"operators.py", "states.py"}


SCIPY_STEPS = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

cfile, out = sys.argv[1:]
steps = {}
from qsdecert.cli import main
steps["import"] = scipy_modules()
for name, argv in [
    ("bound", ["bound", "--constants", cfile, "--partition", "0,0.5,1"]),
    ("kerr-table", ["kerr-table", "--k-list", "3", "--format", "json"]),
    ("optimize", ["optimize", "--model", "kerr", "--k", "3"]),
]:
    assert main(argv + ["--out", out]) == 0
    steps[name] = scipy_modules()
print(json.dumps(steps))
"""


def test_scipy_loads_only_in_commands_that_call_it(tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"gamma": 2.0, "qL": 1.0, "qa": 0.5, "qe": 0.5}))
    src = str(Path(qsdecert.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_STEPS, str(cfile), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    steps = json.loads(proc.stdout)
    # The rate-sum route and the import itself run without scipy; the table
    # exponentiates through scipy.linalg; only a search loads scipy.optimize.
    assert steps["import"] == [] and steps["bound"] == []
    assert "scipy.linalg" in steps["kerr-table"]
    assert "scipy.optimize" not in steps["kerr-table"]
    assert "scipy.optimize" in steps["optimize"]
