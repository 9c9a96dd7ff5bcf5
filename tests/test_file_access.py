"""Only `steiner3.cli` touches the filesystem: no other steiner3 module
imports `pathlib`, `importlib` or `io`, or calls `open`."""

import ast
from pathlib import Path

import pytest

import steiner3

MODULES = sorted(Path(steiner3.__file__).parent.glob("*.py"))
FILE_MODULES = {"pathlib", "importlib", "io"}


def file_access(source: str) -> list[str]:
    """Each import of a file module, and each call of `open`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            modules = []
        found += [
            f"line {node.lineno}: import {module}"
            for module in modules
            if module.split(".")[0] in FILE_MODULES
        ]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            found.append(f"line {node.lineno}: open()")
    return found


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.stem != "cli"], ids=lambda path: path.stem
)
def test_no_library_module_touches_files(path):
    assert file_access(path.read_text(encoding="utf-8")) == []


def test_the_guard_finds_file_access():
    source = (
        "import io, json\n"
        "from importlib import resources\n"
        "from .design import Design\n"
        "import importlib.resources\n"
        "def load(name):\n"
        "    with open(name) as f:\n"
        "        return f.read(), Design.open\n"
    )
    assert file_access(source) == [
        "line 1: import io",
        "line 2: import importlib",
        "line 4: import importlib.resources",
        "line 6: open()",
    ]
