"""Every name that a module of the package or of the tests imports is used,
and the solver's modules load no heavy scipy subpackage.

No linter is a test dependency, so an AST scan stands in for one: a name
bound by an import must appear as a name somewhere in its module.
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


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_scan_flags_unused_names():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
           "x = np.zeros(3) * pi\n")
    assert unused_imports(src) == ["os", "tau"]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# the modules the benchmark loads (bench/workloads.py), and the scipy
# subpackages that would add tens of MB to every run's resident memory
SOLVER_MODULES = ("harness", "stepper", "stokes", "neareval", "spectral",
                  "geometry", "surfactant", "dirichlet", "pair_oracle")
HEAVY = ("scipy.sparse", "scipy.linalg", "scipy.spatial", "scipy.special")


def test_solver_modules_load_no_heavy_scipy():
    # a fresh interpreter: this one has the tests' scipy imports loaded
    code = "".join(f"import drops2d.{m}\n" for m in SOLVER_MODULES) + (
        "import sys\n"
        f"print(*sorted(m for m in sys.modules if m.startswith({HEAVY})))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == []
