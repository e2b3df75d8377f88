"""Every name that a module of the package or of the tests imports is used,
and the package runs without scipy, a test-only dependency.

No linter is a test dependency, so an AST scan stands in for one: a name
bound by an import must be read in the scope that binds it, the module or
the function whose body holds the import (functions nested in it
included).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "drops2d").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def own_nodes(scope):
    """The nodes of scope outside the functions nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    unused = set()
    for scope in [tree, *(n for n in ast.walk(tree)
                          if isinstance(n, FUNCTIONS))]:
        bound = set()
        for node in own_nodes(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused |= bound - read
    return sorted(unused)


def test_scan_flags_unused_names():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
           "x = np.zeros(3) * pi\n")
    assert unused_imports(src) == ["os", "tau"]


def test_scan_flags_names_unread_in_their_scope():
    # a name only assigned, or read only outside the function that
    # imports it, is not used by that import
    src = ("import json\njson = None\n"
           "def f():\n    from math import e\n    return 1\n"
           "def g():\n    import os\n    return lambda: e + os.sep\n")
    assert unused_imports(src) == ["e", "json"]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


MODULES = sorted(p.stem for p in (ROOT / "src" / "drops2d").glob("*.py")
                 if p.stem != "__init__")


def run_fresh(code: str, cwd) -> str:
    """stdout of code run by a fresh interpreter on the checkout's src/
    (this one has the tests' scipy imports loaded)."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path}).stdout


def test_package_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: no module of the package loads it
    code = "".join(f"import drops2d.{m}\n" for m in MODULES) + (
        "import sys\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert {"cli", "steady_oracle"} <= set(MODULES)
    assert run_fresh(code, tmp_path).split() == []


# the config that the CI's NumPy-only install also runs: an ellipse and a
# custom drop, so that the run puts drops on equal arclength and reloads
# complex points from its JSON
RUN_CONFIG = ("import numpy as np\n"
              "from drops2d.harness import DropSpec, RunSpec, ScenarioConfig\n"
              "from drops2d.stokes import FlowConfig\n"
              "t = np.arange(32) * np.pi / 16\n"
              "cfg = ScenarioConfig(\n"
              "    drops=[DropSpec(shape='ellipse', axes=(1.2, 1 / 1.2),\n"
              "                    rho0=0.5, n=32),\n"
              "           DropSpec(shape='custom', rho0=0.5, n=32,\n"
              "                    points=list(3 + 0.5 * np.cos(t)\n"
              "                                - 0.4j * np.sin(t)))],\n"
              "    flow=FlowConfig(Q=0.1, Pe=10.0),\n"
              "    run=RunSpec(t_end=6e-3, fixed_dt=2e-3))\n"
              "open('run.json', 'w').write(cfg.to_json())\n")


def test_cli_runs_without_scipy(tmp_path):
    # the CLI's function-level imports, with any scipy import an error
    code = ("import sys\nsys.modules['scipy'] = None\n" + RUN_CONFIG +
            "from drops2d.cli import main\n"
            "for argv in (['oracle', 'steady', '--points', '64'],\n"
            "             ['oracle', 'pair', '--nv', '16', '--t-end', '1e-3'],\n"
            "             ['estimate-study', '--panels', '8', '--grid', '6']):\n"
            "    assert main(argv + ['--out-dir', 'out']) == 0\n"
            "assert main(['run', '--config', 'run.json',\n"
            "             '--out-dir', 'out/run']) == 0\n")
    assert "scenario: 3 accepted steps to t=0.006" in run_fresh(
        code, tmp_path).splitlines()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "estimate_grid_8.csv", "pair_oracle.csv", "run", "steady_oracle.csv"]
    assert (tmp_path / "out" / "run" / "series.csv").read_text().count(
        "\n") == 4
