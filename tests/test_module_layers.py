"""Each steiner3 module imports only the modules of the layers below it.

The arithmetic half (`sieve`) needs no design and no group; `design`
needs no field; `permgrp` builds on `design`, and `catalog` on
everything but `sieve`.  `cli` and the package `__init__` are free to
import any module."""

import ast
from pathlib import Path

import pytest

import steiner3

MODULES = sorted(Path(steiner3.__file__).parent.glob("*.py"))
FREE = {"__init__", "cli"}
LAYERS = {
    "errors": set(),
    "trace": set(),
    "kinds": set(),
    "gf": {"errors"},
    "design": {"errors"},
    "sieve": {"errors", "gf", "trace"},
    "permgrp": {"design", "errors", "trace"},
    "catalog": {"design", "errors", "gf", "kinds", "permgrp", "trace"},
}


def relative_imports(source: str) -> set[str]:
    """The sibling modules a source imports with `from .m import ...`,
    or with `from . import m`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in MODULES} == FREE | set(LAYERS)


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_module_imports_only_its_layers(name):
    path = Path(steiner3.__file__).parent / f"{name}.py"
    assert relative_imports(path.read_text(encoding="utf-8")) == LAYERS[name]


def test_the_guard_reads_relative_imports():
    source = (
        "import numpy as np\n"
        "from json import dumps\n"
        "from .design import Design\n"
        "from . import gf, trace\n"
        "from .permgrp.sub import orbit\n"
        "def f():\n"
        "    from .sieve import blocksize_bound\n"
        "    return blocksize_bound\n"
    )
    assert relative_imports(source) == {"design", "gf", "trace", "permgrp", "sieve"}
