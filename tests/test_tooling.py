"""The benchmark's tracer and workloads, and every module's __all__, name
program objects that exist; the searches reach the tracer's exponential
layers and solve every candidate through its solve layer; scipy's expm has
only its known callers; only states reaches numpy's private lstsq gufunc;
the library raises only its own errors and has no assert; only semigroup
decides when two breakpoints are one; no library module
imports another's private names beyond two known helpers or imports
scipy.optimize; scipy loads only in the commands that call it, and
scipy.optimize in none."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_workload_imports_resolve():
    # Every qsdecert name perfbench/workloads.py imports exists, and every
    # keyword it passes to one of them is still a parameter.
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qsdecert"
        for alias in node.names
    }
    assert "ae_certificate_table" in imported
    objects = {}
    for local, (mod, name) in imported.items():
        module = importlib.import_module(mod)
        if hasattr(module, name):
            objects[local] = getattr(module, name)
        else:
            assert importlib.util.find_spec(f"{mod}.{name}") is not None, f"{mod}.{name}"
    unknown = [
        f"{node.func.id}({kw.arg}=)" for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and callable(objects.get(node.func.id))
        for kw in node.keywords
        if kw.arg is not None
        and kw.arg not in inspect.signature(objects[node.func.id]).parameters
    ]
    assert unknown == []
    assert {"seed", "pool_map"} <= set(
        inspect.signature(objects["ae_certificate_table"]).parameters)


def test_tracer_reaches_nelder_mead():
    # perfbench/tracing.py wraps states.scipy.optimize.minimize as its
    # states.minimize layer; the path is kept for the tracer alone.
    states = importlib.import_module("qsdecert.states")
    assert states.scipy.optimize.minimize is importlib.import_module("scipy.optimize").minimize


def _counted(monkeypatch, module, names):
    """Replace module.<name> for each name by a wrapper counting its calls."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _fn=getattr(module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, wrapper)
    return counts


def _search_2x2(block_size):
    """A small 2x2 search: two terms on 4 intervals, in blocks of block_size
    or (None) jointly, which takes the gradient search."""
    model = qsdecert.limit_coefficients(qsdecert.atom_cavity_ae(25.0, 5.0, 0.1))
    u0 = np.array([0.0, 1.0], dtype=complex)
    f = qsdecert.SimpleFunction.constant([0.1], 1.0)
    g = qsdecert.SimpleFunction(np.linspace(0.0, 1.0, 5), np.full((4, 1), 0.1))
    h = qsdecert.SimpleFunction(np.linspace(0.0, 1.0, 5), np.full((4, 1), 0.1 + 0.05j))
    initial = qsdecert.ApproxState([(u0, g), (u0, h)])
    return qsdecert.optimize(model, (u0, f), initial,
                             qsdecert.OptimizeSchedule(block_size=block_size, max_iter=20))


def test_searches_reach_the_traced_exponentials(monkeypatch):
    # perfbench/tracing.py's states.expm2 and states.expm_dense layers wrap
    # states._expm2 and states._expm: the 2x2 block and gradient searches
    # must take only the first, the Kerr search (dimension k + 1 > 2) only
    # the second.
    states = importlib.import_module("qsdecert.states")
    counts = _counted(monkeypatch, states, ("_expm2", "_expm"))
    for block_size in (2, None):
        counts.update(_expm2=0, _expm=0)
        result = _search_2x2(block_size)
        assert counts["_expm2"] >= result.nfev > 0 and counts["_expm"] == 0
    counts.update(_expm2=0, _expm=0)
    qsdecert.kerr_search(2, t_final=0.5)
    assert counts["_expm"] > 0 and counts["_expm2"] == 0


def test_kerr_search_exponentiates_at_the_working_level(monkeypatch):
    # kerr_search(30) searches at level 19, so every dense exponential of the
    # search is 20x20; the level-30 cost goes through semigroup.chain and
    # operators.matexp, not states._expm.
    states = importlib.import_module("qsdecert.states")
    shapes = []

    def recorded(M, _fn=states._expm):
        shapes.append(np.shape(M))
        return _fn(M)

    monkeypatch.setattr(states, "_expm", recorded)
    qsdecert.kerr_search(30)
    assert shapes and set(shapes) == {(20, 20)}


def test_searches_reach_the_traced_solve(monkeypatch):
    # perfbench/tracing.py's states.solve layer wraps
    # states._solve_coefficients: every search (block, 2x2 gradient, Kerr
    # simplex) must solve every candidate through it, so the layer counts at
    # least nfev calls.
    states = importlib.import_module("qsdecert.states")
    counts = _counted(monkeypatch, states, ("_solve_coefficients",))
    for block_size in (2, None):
        counts["_solve_coefficients"] = 0
        result = _search_2x2(block_size)
        assert counts["_solve_coefficients"] >= result.nfev > 0
    counts["_solve_coefficients"] = 0
    result = qsdecert.kerr_search(2, t_final=0.5)
    assert counts["_solve_coefficients"] >= result.nfev > 0


def test_only_states_reaches_the_lstsq_gufunc():
    # states._solve_coefficients calls numpy's private least-squares gufunc,
    # which test_solve_coefficients_matches_lstsq_bit_for_bit pins against
    # np.linalg.lstsq; no other module may come to depend on that name.
    src = Path(qsdecert.__file__).resolve().parent
    users = [path.name for path in sorted(src.glob("*.py"))
             if "_umath_linalg" in path.read_text()]
    assert users == ["states.py"]


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


def _enclosing_function(node, parents):
    while node in parents and not isinstance(node, ast.FunctionDef):
        node = parents[node]
    return getattr(node, "name", None)


def test_no_module_imports_scipy_optimize():
    # The searches' Nelder-Mead is states' own; importing scipy.optimize
    # would add about 19 MB to a process. The one import allowed is the
    # states.__getattr__ hook that perfbench/tracing.py reaches on demand.
    src = Path(qsdecert.__file__).resolve().parent
    importers = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.startswith("scipy.optimize") for name in names):
                importers.append((path.name, _enclosing_function(node, parents)))
    assert importers == [("states.py", "__getattr__")]


def test_library_raises_only_its_own_errors_and_asserts_nothing():
    # Every raise names a QsdeCertError subclass (both branches of a
    # conditional class), so callers can catch the library's errors alone.
    # The exceptions: a module __getattr__ must raise AttributeError, and
    # argparse turns ArgumentTypeError into a usage error. asserts vanish
    # under python -O, so the source has none.
    allowed = {("states.py", "__getattr__", "AttributeError"),
               ("cli.py", "_level", "argparse.ArgumentTypeError"),
               ("cli.py", "_levels", "argparse.ArgumentTypeError")}
    errors = importlib.import_module("qsdecert.errors")
    src = Path(qsdecert.__file__).resolve().parent
    foreign, asserts = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                asserts.append(f"{path.name}:{node.lineno}")
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            branches = [exc.body, exc.orelse] if isinstance(exc, ast.IfExp) else [exc]
            for branch in branches:
                name = ast.unparse(branch) if branch is not None else "bare raise"
                cls = getattr(errors, name, None)
                if isinstance(cls, type) and issubclass(cls, errors.QsdeCertError):
                    continue
                if (path.name, _enclosing_function(node, parents), name) not in allowed:
                    foreign.append(f"{path.name}:{node.lineno} {name}")
    assert foreign == [] and asserts == []


def _abs_of_t_final_difference(node):
    return (isinstance(node, ast.Call) and ast.unparse(node.func) in ("abs", "np.abs")
            and len(node.args) == 1 and isinstance(node.args[0], ast.BinOp)
            and isinstance(node.args[0].op, ast.Sub)
            and any(isinstance(side, ast.Attribute) and side.attr == "t_final"
                    for side in (node.args[0].left, node.args[0].right)))


def _number(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def test_only_semigroup_decides_when_breakpoints_are_one():
    # semigroup.same_breakpoint is the one rule, its tolerance scaled by the
    # horizon. Absolute copies of it (BREAKPOINT_MERGE_TOL or a literal on
    # |t_final - ...|) split long horizons into sliver intervals.
    src = Path(qsdecert.__file__).resolve().parent
    copies = []
    for path in sorted(src.glob("*.py")):
        if path.name == "semigroup.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            if "BREAKPOINT_MERGE_TOL" in names:
                copies.append(f"{path.name}:{node.lineno} BREAKPOINT_MERGE_TOL")
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(map(_abs_of_t_final_difference, sides)) and any(map(_number, sides)):
                    copies.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert copies == []


def test_no_module_imports_private_names_of_another():
    # A rule that two modules share is a public function (the input rules
    # live in errors), not a private helper one module borrows from another.
    # The two exceptions are helpers of one computation: adiabatic stacks
    # generators through semigroup's, and verification embeds truncated
    # spaces through models'.
    allowed = {("semigroup", "_generators"), ("models", "_fock_embedding")}
    src = Path(qsdecert.__file__).resolve().parent
    borrowed = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("qsdecert."):
                    continue
                module = module.removeprefix("qsdecert.")
            borrowed += [f"{path.name}: {module}.{alias.name}" for alias in node.names
                         if alias.name.startswith("_") and (module, alias.name) not in allowed]
    assert borrowed == []


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
    ("optimize-ae", ["optimize", "--model", "ae", "--intervals", "2", "--blocks", "1"]),
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
    # exponentiates through scipy.linalg; no command loads scipy.optimize,
    # since the searches' Nelder-Mead and L-BFGS are states' own.
    assert steps["import"] == [] and steps["bound"] == []
    assert "scipy.linalg" in steps["kerr-table"]
    assert all("scipy.optimize" not in loaded for loaded in steps.values())
