"""Property-based fuzzing of the input surface: generator files, design
JSON and CLI argument vectors.

Every library call either succeeds or raises a Steiner3Error, and the CLI
always exits 0, 1 or 2 without a traceback.  Runs are derandomized, so
the examples are the same on every run, and every drawn size stays at
desk scale: the caps are exercised only with values they reject before
allocating anything.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steiner3 import (
    Design,
    GeneratorSet,
    PermutationError,
    Steiner3Error,
    cli,
    from_json,
    parse_generators,
    to_json,
)
from steiner3.catalog import affine_group_generators, construct_boolean_affine
from steiner3.design import MAX_POINTS
from steiner3.permgrp import format_generators

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# -- generator files ------------------------------------------------------------


@st.composite
def generator_files(draw):
    """A 'degree: n' header over a small n, then a few permutation lines
    that are often valid and often slightly wrong."""
    degree = draw(st.integers(0, 8))
    lines = [draw(st.sampled_from([f"degree: {degree}", f"degree:{degree}", "degree: x", ""]))]
    points = st.integers(-1, degree + 1)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["img", "cycles", "junk"]))
        if kind == "img":
            images = draw(st.one_of(st.permutations(range(degree)), st.lists(points, max_size=9)))
            lines.append("img: " + ",".join(map(str, images)))
        elif kind == "cycles":
            cycles = draw(st.lists(st.lists(points, max_size=4), min_size=1, max_size=3))
            lines.append("".join("(" + " ".join(map(str, c)) + ")" for c in cycles))
        else:
            lines.append(draw(st.text(alphabet="img:(), 0123456789#-x", max_size=12)))
    return "\n".join(lines) + "\n"


def parse_or_library_error(text):
    try:
        gens = parse_generators(text)
    except Steiner3Error:
        return None
    assert isinstance(gens, GeneratorSet)
    return gens


@FUZZ
@given(generator_files())
def test_parse_generators_on_near_valid_files(text):
    gens = parse_or_library_error(text)
    if gens is not None:
        assert parse_generators(format_generators(gens)) == gens


@FUZZ
@given(st.text(max_size=80))
def test_parse_generators_on_arbitrary_text(text):
    parse_or_library_error(text)


@FUZZ
@given(st.integers(MAX_POINTS + 1, 10**40))
def test_parse_generators_rejects_degrees_above_the_cap(degree):
    with pytest.raises(PermutationError, match="point cap"):
        parse_generators(f"degree: {degree}\nimg: 0\n")


# -- design JSON ------------------------------------------------------------------

JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=16,
)
BLOCK_LISTS = st.lists(st.lists(st.integers(-1, 9), max_size=5), max_size=8)


@st.composite
def design_payloads(draw):
    """Objects with the design keys, each value sometimes well-typed."""
    payload = {
        "v": draw(st.integers(-1, 10) | JSON_VALUES),
        "t": draw(st.integers(-1, 4) | JSON_VALUES),
        "blocks": draw(BLOCK_LISTS | JSON_VALUES),
    }
    if draw(st.booleans()):
        payload["lambda"] = draw(st.just(1) | JSON_VALUES)
    if draw(st.booleans()):
        payload["labels"] = draw(st.lists(st.text(max_size=2), max_size=10) | JSON_VALUES)
    for key in draw(st.sets(st.sampled_from(["v", "t", "blocks"]), max_size=1)):
        del payload[key]
    return payload


def load_or_library_error(text):
    try:
        design = from_json(text)
    except Steiner3Error:
        return None
    assert isinstance(design, Design)
    assert from_json(to_json(design)) == design
    return design


@FUZZ
@given(design_payloads())
def test_from_json_on_design_shaped_objects(payload):
    load_or_library_error(json.dumps(payload))


@FUZZ
@given(JSON_VALUES)
def test_from_json_on_arbitrary_json(value):
    load_or_library_error(json.dumps(value))


@FUZZ
@given(st.text(max_size=60))
def test_from_json_on_arbitrary_text(text):
    load_or_library_error(text)


@st.composite
def nested_documents(draw):
    """A design document, or one of its values, nested in arrays up to a
    few thousand deep, past the depth at which json.loads recurses out."""
    depth = draw(st.integers(1, 5000))
    nested = "[" * depth + draw(st.sampled_from(["", "0", '"a"'])) + "]" * depth
    key = draw(st.sampled_from([None, "v", "t", "blocks", "labels", "lambda"]))
    if key is None:
        return nested
    # a repeated key: json.loads keeps the last value
    return '{"v":4,"t":3,"blocks":[[0,1,2,3]],' + f'"{key}":{nested}}}'


@FUZZ
@given(nested_documents(), st.booleans())
def test_from_json_on_deeply_nested_documents(text, as_bytes):
    load_or_library_error(text.encode() if as_bytes else text)


# -- CLI argument vectors ------------------------------------------------------------


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files of every kind a verb can be pointed at, and output paths."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {
        "design": root / "aff3.json",
        "gens": root / "agl1.gens",
        "swap": root / "swap.gens",
        "bad-json": root / "bad.json",
        "empty-block": root / "empty.json",
        "latin1": root / "latin1.json",
        "missing": root / "missing.json",
        "directory": root,
    }
    paths["design"].write_text(to_json(construct_boolean_affine(3)))
    paths["gens"].write_text(format_generators(affine_group_generators("AGL_1", 3)))
    paths["swap"].write_text("degree: 8\n(1 2)\n")  # not an automorphism of aff3
    paths["bad-json"].write_text('{"v": 8, "t": 3, "blocks": [[0, 1, 2, true]]}')
    paths["empty-block"].write_text('{"v": 1, "t": 1, "blocks": [[]]}')
    paths["latin1"].write_bytes(b'{"v": 8, "t": 3, "labels": ["\xe9"]}')
    inputs = [str(p) for p in paths.values()]
    outputs = [str(root / "out"), str(root), str(root / "no-such-dir" / "out")]
    return inputs, outputs


@st.composite
def argument_vectors(draw, inputs, outputs):
    """One verb with all of its options but at most one, each value drawn
    from small integers, the verb's choices, prepared files or a little junk."""
    number = st.sampled_from([str(i) for i in range(-2, 13)] + ["x"])
    infile = st.sampled_from(inputs)
    outfile = st.sampled_from(outputs)
    kinds = st.sampled_from(cli.AFFINE_KINDS + cli.PROJECTIVE_KINDS + ("junk",))
    verbs = {
        "construct": [("--family", st.sampled_from(["affine", "spherical", "netto", "witt", "x"])),
                      ("--d", number), ("--q", number), ("--e", number), ("--out", outfile)],
        "verify": [(None, infile), ("--t", number)],
        "derive": [(None, infile), ("--point", number), ("--out", outfile)],
        "params": [(None, infile)],
        "flagcheck": [(None, infile), ("--gens", infile)],
        "autgroup": [(None, infile), ("--out", outfile)],
        "order": [(None, infile)],
        "sieve": [("--v-min", number), ("--v-max", number), ("--json", None)],
        "classify": [("--v", number), ("--k", number)],
        "cyclotomic": [("--d", number), ("--q", number)],
        "zsigmondy": [("--q", number), ("--n", number)],
        "rnagell": [("--max-n", number)],
        "groupgens": [("--family", st.sampled_from(["affine", "projective", "x"])),
                      ("--kind", kinds), ("--d", number), ("--q", number), ("--e", number),
                      ("--out", outfile)],
    }
    verb = draw(st.sampled_from(sorted(verbs) + ["frobnicate"]))
    options = verbs.get(verb, [])
    # at most one option left out and a junk token in about a quarter of
    # the vectors, so that most vectors get past argparse to the verb
    dropped = draw(st.sampled_from([None, None, None, *range(len(options))]))
    argv = [verb]
    for i, (flag, value) in enumerate(options):
        if i == dropped:
            continue
        if flag is not None:
            argv.append(flag)
        if value is not None:
            argv.append(draw(value))
    if draw(st.sampled_from([False, False, False, True])):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.text(max_size=4)))
    return argv


def test_cli_exit_codes_on_fuzzed_argument_vectors(files):
    inputs, outputs = files

    @settings(FUZZ, max_examples=150)
    @given(argument_vectors(inputs, outputs))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code == 2 and err.getvalue().startswith("error: "):
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv

    check()
