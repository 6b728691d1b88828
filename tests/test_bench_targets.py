"""Every name the benchmark tracer patches still exists in the package.

``bench/tracing.py`` wraps package functions by (module, attribute) name.
It is read here as text, not imported, so a rename under ``src/`` that
would leave a metric blind fails this suite.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
TABLES = ("SPAN_TARGETS", "LOCAL_SPAN_TARGETS", "COUNT_TARGETS")


def tracer_targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                found[name] = ast.literal_eval(node.value)
    assert set(found) == set(TABLES)
    return [(table, module, attr)
            for table in TABLES for module, attr, _ in found[table]]


def test_every_tracer_target_resolves():
    missing = []
    for table, module, attr in tracer_targets():
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{table}: {module}.{attr}")
    assert not missing
