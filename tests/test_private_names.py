"""No steiner3 module imports another module's private names, or reads a
private attribute (a name with a leading underscore, dunders aside) that
it does not define itself."""

import ast
from pathlib import Path

import pytest

import steiner3

MODULES = sorted(Path(steiner3.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def reach_ins(source: str) -> list[str]:
    """Each `from m import _name`, and each `obj._name` whose name the
    source binds nowhere: no def, class, assignment or attribute store."""
    tree = ast.parse(source)
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [
                f"line {node.lineno}: from {module} import {alias.name}"
                for alias in node.names
                if _private(alias.name)
            ]
        elif isinstance(node, ast.Attribute) and _private(node.attr) and node.attr not in own:
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_reaches_into_another(path):
    assert reach_ins(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_reach_ins():
    source = (
        "from .gf import FieldContext, _mul\n"
        "class Design:\n"
        "    def __init__(self):\n"
        "        self._array = None\n"
        "    def __eq__(self, other):\n"
        "        return self._array is other._array and other.__class__ is Design\n"
        "def f(ctx):\n"
        "    return ctx._omega_idx\n"
    )
    assert reach_ins(source) == [
        "line 1: from .gf import _mul",
        "line 8: ._omega_idx",
    ]
