"""Every name a module imports is one it uses."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fuchslin"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")

# Imported and never called: bench/tracing.py looks the name up to time the
# integrator (tests/test_bench_targets.py pins it).
KEPT = {("analytic.py", "solve_ivp")}


def unused_imports(source):
    """The names ``source`` binds by import and never reads, in order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport scipy.linalg\n"
              "from .document import SchemaError, SystemDocument\n"
              "x = scipy.linalg.expm(np.eye(2))\n"
              "def f(e: SchemaError):\n    return e\n")
    assert unused_imports(source) == ["SystemDocument"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    unused = unused_imports((SRC / module).read_text(encoding="utf-8"))
    assert [name for name in unused if (module, name) not in KEPT] == []
