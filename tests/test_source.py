"""Checks read off the source text: no import goes unused, and the tracer's names exist.

qdo's CI runs no linter, so the unused-import rule lives here. The benchmark's
tracer (``perfbench/spans.py``) wraps qdo functions by name; its ``TRACED``
table is read with ``ast``, not imported, so a renamed or deleted function
fails here rather than only in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# The package's __init__ imports names only to re-export them.
SOURCES = sorted(
    p for d in ("src/qdo", "tests", "tools") for p in (ROOT / d).rglob("*.py")
    if p != ROOT / "src/qdo/__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, in import order.

    A name is used where it appears as an ``ast.Name`` or as a function
    parameter (how a pytest fixture arrives); ``__future__`` imports are exempt.
    """
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
    return [name for name in imported if name not in used]


def test_the_rule():
    source = "from __future__ import annotations\nimport os, os.path as p\nfrom a import b, c as d\n" \
             "def f(b): return os\n"
    assert unused_imports(source) == ["p", "d"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_traced_functions_exist():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert traced
    for module, function, _ in traced:
        assert callable(getattr(importlib.import_module(f"qdo.{module}"), function, None)), f"qdo.{module}.{function}"
