"""The package and the CLI load a module only when it is used.

`steiner3/__init__.py` imports none of its modules: each public name is
resolved on first use.  `steiner3.cli` imports the arithmetic layer
(`errors`, `trace`, `gf`, `sieve`) at once and registers `design`,
`permgrp` and `catalog` in `sys.modules` unexecuted, so a verb loads
only the layers it calls.  `type(sys.modules[name])` tells the two
apart without loading anything: a registered module that has not run
is of a subclass of `types.ModuleType`.  Each check that depends on
what has been imported runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import steiner3
from steiner3.cli import main
from test_cli import LIBRARY_ERRORS

# every name the package bound when its __init__ imported every module
EXPORTS = {
    "design": (
        "Design", "DesignParams", "SteinerReport", "derived_design", "from_json",
        "params_of", "to_json", "verify_steiner",
    ),
    "errors": ("DesignError", "Steiner3Error"),
    "gf": ("FieldContext", "FieldError"),
    "catalog": (
        "CatalogError", "CatalogueEntry", "GolayConstructionError", "ProjectiveLine",
        "affine_group_generators", "classify", "construct_boolean_affine",
        "construct_netto_extension", "construct_octad_design", "construct_spherical",
        "construct_witt_22", "is_affine_line_system", "lexicode_codewords",
        "load_a7_generators", "projective_group_generators",
    ),
    "permgrp": (
        "FlagReport", "GeneratorSet", "GroupSummary", "NotFlagTransitive",
        "PermutationError", "SearchBudgetExceeded", "SetNotPreserved", "StabilizerReport",
        "automorphism_group", "block_action", "format_generators", "group_order",
        "is_flag_transitive", "orbit", "parse_generators", "stabilizer_identities",
    ),
    "sieve": (
        "CameronResult", "CyclotomicEval", "SieveError", "SieveReport", "ZsigmondyResult",
        "admissible_parameters", "blocksize_bound", "cameron_check", "cyclotomic_eval",
        "division_property", "ramanujan_nagell", "ramanujan_nagell_block_sizes",
        "screen_parameters", "semilinear_divisibility", "zsigmondy_ppd",
    ),
}
HOME = {name: module for module, names in EXPORTS.items() for name in names}
# every module it bound, its own imports included
MODULES = ("catalog", "design", "errors", "gf", "permgrp", "sieve", "trace")
DEFERRED = ("design", "permgrp", "catalog")

# prints, as one JSON line on stderr, each deferred module's state:
# "absent", "unexecuted" (registered, bound on the package, not run) or "executed"
STATES = """
import json, sys, types
def state(name):
    module = sys.modules.get("steiner3." + name)
    if module is None:
        return "absent"
    assert vars(sys.modules["steiner3"])[name] is module
    return "executed" if type(module) is types.ModuleType else "unexecuted"
print(json.dumps({name: state(name) for name in %r}), file=sys.stderr)
""" % (DEFERRED,)


def child(code: str, *args: str) -> subprocess.CompletedProcess:
    """`python -c CODE ARGS` in a fresh interpreter that imports this
    checkout's steiner3, output captured."""
    src = str(Path(steiner3.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, STEINER3_TRACE="0")
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result


def states(result: subprocess.CompletedProcess) -> dict:
    return json.loads(result.stderr.splitlines()[-1])


def test_all_lists_every_export():
    assert len(HOME) == 58
    assert sorted(steiner3.__all__) == sorted([*HOME, *MODULES])


def test_every_export_is_its_modules_object():
    wrong = [
        name
        for name, module in HOME.items()
        if getattr(steiner3, name) is not getattr(import_module(f"steiner3.{module}"), name)
    ]
    assert wrong == []


def test_every_exported_exception_is_in_the_exit_code_contract():
    # vars(steiner3) holds only the names resolved so far, so resolve them
    # all; a new exported exception fails here until test_cli's
    # LIBRARY_ERRORS drives it through the exit-two test
    exported = {
        value
        for value in (getattr(steiner3, name) for name in steiner3.__all__)
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    assert exported == set(LIBRARY_ERRORS) | {steiner3.Steiner3Error}
    assert all(issubclass(error, steiner3.Steiner3Error) for error in exported)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        steiner3.no_such_name


def test_the_package_imports_no_module_until_one_is_read():
    result = child(
        "import sys, steiner3\n"
        "print(sorted(m for m in sys.modules if m.startswith('steiner3.')))\n"
        "print(steiner3.permgrp.orbit is sys.modules['steiner3.permgrp'].orbit)"
    )
    assert result.stdout == "[]\nTrue\n"


def test_star_import_binds_every_export_and_module():
    home = {**HOME, **{module: None for module in MODULES}}
    result = child(
        "import json, sys\n"
        "from steiner3 import *\n"
        "home = json.loads(sys.argv[1])\n"
        "names = [n for n in dir() if n in home]\n"
        "wrong = [n for n in names if globals()[n] is not (sys.modules['steiner3.' + n]"
        " if home[n] is None else getattr(sys.modules['steiner3.' + home[n]], n))]\n"
        "print(json.dumps([sorted(names), wrong]))",
        json.dumps(home),
    )
    assert json.loads(result.stdout) == [sorted(home), []]


def test_dir_lists_every_export_and_module_before_any_is_read():
    result = child("import json, steiner3\nprint(json.dumps(dir(steiner3)))")
    listed = json.loads(result.stdout)
    assert set(HOME) | set(MODULES) <= set(listed)
    assert "__version__" in listed


def test_cli_import_registers_and_binds_the_deferred_modules():
    # reading steiner3.design must not run it; vars() of it must
    # (bench/tracer.py wraps each module's functions through vars())
    result = child(
        "import sys, steiner3.cli, steiner3\n"
        "assert steiner3.design is sys.modules['steiner3.design']\n"
        + STATES
        + "assert 'from_json' in vars(sys.modules['steiner3.design'])\n"
        + STATES
    )
    before, after = (json.loads(line) for line in result.stderr.splitlines())
    assert before == dict.fromkeys(DEFERRED, "unexecuted")
    assert after == {"design": "executed", "permgrp": "unexecuted", "catalog": "unexecuted"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """An 8-point affine design and its group's generators, made in process."""
    root = tmp_path_factory.mktemp("lazy")
    design, gens = root / "aff3.json", root / "agl32.gens"
    assert main(["construct", "--family", "affine", "--d", "3", "--out", str(design)]) == 0
    assert main(["groupgens", "--family", "affine", "--kind", "AGL_d_2", "--d", "3",
                 "--out", str(gens)]) == 0
    return root


ARITHMETIC = dict.fromkeys(DEFERRED, "unexecuted")
DESIGN_ONLY = {"design": "executed", "permgrp": "unexecuted", "catalog": "unexecuted"}
NO_CATALOG = {"design": "executed", "permgrp": "executed", "catalog": "unexecuted"}


@pytest.mark.parametrize(
    "argv,expected",
    [
        pytest.param(["sieve", "--v-min", "4", "--v-max", "200"], ARITHMETIC, id="sieve-text"),
        pytest.param(["sieve", "--v-min", "4", "--v-max", "50", "--json"], ARITHMETIC,
                     id="sieve-json"),
        pytest.param(["cyclotomic", "--d", "6", "--q", "2"], ARITHMETIC, id="cyclotomic"),
        pytest.param(["zsigmondy", "--q", "2", "--n", "11"], ARITHMETIC, id="zsigmondy"),
        pytest.param(["rnagell", "--max-n", "20"], ARITHMETIC, id="rnagell"),
        pytest.param(["verify", "aff3.json"], DESIGN_ONLY, id="verify"),
        pytest.param(["params", "aff3.json"], DESIGN_ONLY, id="params"),
        pytest.param(["derive", "aff3.json", "--point", "0", "--out", "d.json"], DESIGN_ONLY,
                     id="derive"),
        pytest.param(["flagcheck", "aff3.json", "--gens", "agl32.gens"], NO_CATALOG,
                     id="flagcheck"),
        pytest.param(["order", "agl32.gens"], NO_CATALOG, id="order"),
        pytest.param(["autgroup", "aff3.json", "--out", "aut.gens"], NO_CATALOG, id="autgroup"),
    ],
)
def test_a_verb_leaves_the_layers_it_does_not_use_unexecuted(argv, expected, inputs):
    # the process entry, as `python -m steiner3.cli` runs it
    argv = [str(inputs / a) if a.endswith((".json", ".gens")) else a for a in argv]
    result = child(
        "import runpy, sys\n"
        "sys.argv = ['steiner3', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('steiner3.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        + STATES,
        *argv,
    )
    assert result.stdout
    assert states(result) == expected
