"""Every name a module imports is one it uses, and every private helper
is one some code names."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fuchslin"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def _names(tree):
    """Every name ``tree`` reads, imports or looks up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def unnamed_helpers(sources):
    """The private module-level functions and classes of ``sources``
    ({module: source}) that no code names outside their own definition,
    as "module.name"."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    return [f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and named[node.name] == Counter(_names(node))[node.name]]


def test_unnamed_helpers_are_found():
    sources = {"a": ("def _used():\n    return 1\n"
                     "def _recursive(n):\n    return _recursive(n - 1)\n"
                     "class _Dead:\n    pass\n"
                     "def public():\n    return _used()\n"),
               "b": ("from .a import _Imported\n"
                     "def _called_elsewhere():\n    pass\n"),
               "c": "import b\nb._called_elsewhere()\n"}
    sources["a"] += "class _Imported:\n    pass\n"
    assert unnamed_helpers(sources) == ["a._recursive", "a._Dead"]


def test_every_private_helper_is_named_somewhere_else():
    # a refactor must not leave a private function or class behind that
    # nothing calls, subclasses or imports
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unnamed_helpers(sources) == []
