"""The benchmark's tracer and workloads, and every module's __all__, name
program objects that exist; scipy's expm has only its known callers."""

import ast
import importlib
import importlib.util
import pkgutil
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
