"""Every name that a module of the package or of the tests imports is used.

No linter is a test dependency, so an AST scan stands in for one: a name
bound by an import must appear as a name somewhere in its module.
"""

import ast
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
