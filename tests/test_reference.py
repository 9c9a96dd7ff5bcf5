"""Differential and golden checks for the permutation-group and sieve layers.

`reference_flag_report` is the straightforward transitivity report: a
queue BFS over flags and one orbit partition per action, written
directly on image tuples, with blocks looked up by sort and bisect over
the block list.  The library's array kernel (vectorised block lookup,
bitmap frontier `orbit`) must give the same `FlagReport`, field for
field, and `block_action` the same induced permutation or the same
witness block; `reference_image_rows`, the gather of every block's
image at once, is the reference for the chunked `block_action` on both
lookup paths.  The prefix-key lookup, `Design._prefix_lookup`, is the
reference for the ranked 3-subset lookup on every kind of row, and
`reference_from_json`, the loader that built a tuple per block, for the
array loader and for the parse of to_json's own layout straight into an
array: the same design, blocks and JSON bytes, or the same error.
`reference_to_json`, `json.dumps` of the block tuples, is the reference
for the chunked row writer, `reference_boolean_affine`, the
comprehension over 3-subsets, for the NumPy affine construction, and
`reference_derived_design`, the comprehension over the block tuples,
for the derivation on the block array.
`reference_flag_orbit` is the flag-table search that
the orbit-stabiliser count replaced: a frontier `orbit` over an
(m, b*k) table of flag images.  `reference_screen` is the
sieve's screen written check by check with a frozen, self-checking
report; the table-driven sieve must give the same fields for every
pair, and the divisor-driven `admissible_only` path must yield exactly
the full screen's admissible reports.  `ReferenceAutSearch` is the
automorphism search without the closure under forced images, which
found image blocks in a bitmask dict; the search must give the same
generators in the same order after the same levels, trials and
successes, with its own pinned search nodes, on the catalogue designs
and on relabellings of them, and leave the fixed prefix's state, the
closure included, behind every trial.  `reference_lexicode` is the greedy lexicode that
tested every candidate word against a coset-leader table; reading each
basis word off the table must give the same words.
`reference_coset_table` is the coset-leader table built by a breadth-first
search for every basis; the table marked by meeting in the middle must
equal it on every lexicode prefix and on random bases, and so must the
table folded by one more word.  `reference_octad_design`, the
comprehension over the codewords' bits, is the reference for the NumPy
octads.
`reference_block_orbit` is the base-block orbit built one tuple and one
set probe at a time; the array breadth-first search must give the same
sorted blocks for every spherical and Netto design up to 128 points.
`_product`, the generator-expression composition, is the reference for
composing 256-byte translation tables, and `reference_schreier_sims`,
the chain on image tuples, for the chain on those tables: the same
base, strong generators, transversals and counters.
`reference_every_generator_flag_report`, the flag check through every
generator in the file, must give the same report, or the same witness,
as the check through the generators the chain admits.
`reference_cmd_sieve` is the `sieve` writer that made one or two writes
per report; the chunked writer must give the same bytes on windows of
none, one and about one and two chunks of reports.
The SHA-256 digests pin the bytes of generator files, design files and
sieve output written by the CLI.
"""

import functools
import hashlib
import json
import math
import random
import sys
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, fields
from itertools import chain, combinations, permutations, zip_longest
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steiner3 import catalog, cli, permgrp, sieve
from steiner3 import design as design_module
from steiner3.catalog import (
    AFFINE_KINDS,
    PROJECTIVE_KINDS,
    affine_group_generators,
    construct_boolean_affine,
    construct_netto_extension,
    construct_spherical,
    lexicode_codewords,
    projective_group_generators,
)
from steiner3.cli import main
from steiner3.design import (
    CHUNK_ROWS,
    Design,
    DesignError,
    _canonical_rows,
    derived_design,
    from_json,
    params_of,
    to_json,
)
from steiner3.gf import prime_power
from steiner3.permgrp import (
    FlagReport,
    GeneratorSet,
    NotFlagTransitive,
    SetNotPreserved,
    StabilizerReport,
    _image_table,
    automorphism_group,
    block_action,
    group_order,
    is_flag_transitive,
    orbit,
    stabilizer_identities,
)
from steiner3.sieve import (
    _OUTCOMES,
    CAMERON_EQUALITY_CASES,
    SieveError,
    SieveReport,
    admissible_parameters,
    blocksize_bound,
    screen_parameters,
)


def _closure(gens, seed, act):
    seen = {seed}
    queue = deque([seed])
    while queue:
        state = queue.popleft()
        for g in gens:
            nxt = act(g, state)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _partition(gens, states, act):
    remaining = set(states)
    parts = []
    for seed in states:
        if seed not in remaining:
            continue
        part = _closure(gens, seed, act)
        remaining.difference_update(part)
        parts.append(part)
    return parts


def _reference_index(design: Design, block) -> int:
    key = tuple(sorted(block))
    i = bisect_left(design.blocks, key)
    if i < len(design.blocks) and design.blocks[i] == key:
        return i
    return -1


def _block_images(design: Design, g: tuple) -> tuple:
    return tuple(_reference_index(design, [g[x] for x in block]) for block in design.blocks)


def _reference_witness(design: Design, g: tuple):
    """The first block, in canonical order, whose image is not a block."""
    images = _block_images(design, g)
    return design.blocks[images.index(-1)] if -1 in images else None


def reference_flag_report(design: Design, gens: GeneratorSet) -> FlagReport:
    v, b, k = design.v, design.b, design.k
    induced = [_block_images(design, g) for g in gens.gens]
    pairs = list(zip(gens.gens, induced))

    def flag_act(pair, state):
        g, gb = pair
        x, bi = divmod(state, b)
        return g[x] * b + gb[bi]

    flags = _closure(pairs, design.blocks[0][0] * b, flag_act)
    point_act = lambda g, x: g[x]
    block_orbits = _partition(induced, range(b), point_act)
    point_orbits = _partition(gens.gens, range(v), point_act)
    pair_orbits = _partition(
        gens.gens,
        [x * v + y for x in range(v) for y in range(v) if x != y],
        lambda g, s: g[s // v] * v + g[s % v],
    )
    return FlagReport(
        v=v,
        b=b,
        k=k,
        preserves_blocks=True,
        flag_count=b * k,
        flag_orbit_size=len(flags),
        block_orbit_count=len(block_orbits),
        block_orbit_sizes=tuple(len(p) for p in block_orbits),
        point_orbit_count=len(point_orbits),
        point_pair_orbit_count=len(pair_orbits),
        flag_transitive=len(flags) == b * k,
        block_transitive=len(block_orbits) == 1,
        point_transitive=len(point_orbits) == 1,
        point_2_transitive=len(pair_orbits) == 1,
    )


def reference_flag_orbit(design: Design, gens: GeneratorSet) -> int:
    """Size of the orbit of flag 0, the first block with its least point,
    found by a breadth-first search over every flag.

    A flag is encoded as block_index*k + its point's position in the
    block; a generator sends it to the image block, at the rank of the
    image point in that block.
    """
    v, b, k = design.v, design.b, design.k
    points = _image_table(gens.gens, v)
    flags = np.empty((len(points), b * k), dtype=np.int32)
    for i, g in enumerate(gens.gens):
        blocks = np.asarray(block_action(design, g))
        mapped = points[i][design.block_array]
        rank = sum(mapped > mapped[:, j, np.newaxis] for j in range(k))
        flags[i] = (blocks[:, np.newaxis] * k + rank).ravel()
    return len(orbit(flags, [0]))


def _assert_same_report(design: Design, gens: GeneratorSet, label: str = "") -> FlagReport:
    report = is_flag_transitive(design, gens)
    assert report == reference_flag_report(design, gens), label
    assert report.flag_orbit_size == reference_flag_orbit(design, gens), label
    return report


def _product(g: tuple, h: tuple) -> tuple:
    """g, then h."""
    return tuple(h[x] for x in g)


def _random_permutation(rng: random.Random, n: int) -> tuple:
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


class TestBlockLookupDifferential:
    def test_blocks_sharing_three_points(self):
        # the 4-subsets of 7 points with an even sum: many blocks share
        # each 3-point prefix, and half of all 4-subsets are not blocks
        design = Design(7, 3, [s for s in combinations(range(7), 4) if sum(s) % 2 == 0])
        queries = [list(s) for s in combinations(range(7), 4)]
        rng = random.Random(1)
        for query in queries:
            rng.shuffle(query)
        got = design.block_index(np.array(queries))
        want = [_reference_index(design, q) for q in queries]
        assert got.tolist() == want
        assert [design.block_index(q) for q in queries] == want
        assert want.count(-1) == len(queries) - design.b > 0

    @pytest.mark.parametrize("k", [1, 2])
    def test_small_blocks(self, k):
        design = Design(6, k, [s for s in combinations(range(6), k) if s[0] % 2 == 0])
        queries = list(combinations(range(6), k))
        got = design.block_index(np.array(queries)[:, ::-1])
        assert got.tolist() == [_reference_index(design, q) for q in queries]

    def test_rows_outside_the_points(self, catalogue):
        design = catalogue[("affine", 3)]
        rows = np.array([[0, 1, 2, 3], [-1, 1, 2, 3], [0, 1, 2, 8], [5, 6, 7, 4], [0, 0, 3, 3]])
        assert design.block_index(rows).tolist() == [0, -1, -1, design.b - 1, -1]
        assert design.block_index(rows[:, :3]).tolist() == [-1] * 5
        assert design.block_index(np.zeros((0, 4), dtype=int)).tolist() == []


@pytest.fixture(scope="module")
def ranked_designs(catalogue):
    """Partial Steiner 3-systems on which `block_index` takes the ranked
    path: affine d = 3..7, spherical (3,3) and (5,3) (k = 6), Netto q = 43
    and q = 127, the last two as `from_json` loads them."""
    designs = {f"aff{d}": construct_boolean_affine(d) for d in range(3, 8)}
    designs["s33"] = catalogue[("spherical", 3, 3)]
    designs["s53"] = construct_spherical(5, 3)
    designs["n43"] = from_json(to_json(catalogue[("netto", 43)]))
    designs["n127"] = from_json(to_json(construct_netto_extension(127)))
    return designs


def _query_rows(design: Design, rng: np.random.Generator, count: int) -> np.ndarray:
    """Rows of width k: blocks and their images under a random permutation,
    each with its points shuffled, random k-sets, and rows with a repeated,
    negative or out-of-range point."""
    v, k = design.v, design.k
    blocks = design.block_array[rng.integers(0, design.b, count)]
    images = rng.permutation(v)[blocks]
    subsets = np.argsort(rng.random((count, v)), axis=1)[:, :k]
    bad = blocks.copy()
    col = rng.integers(0, k, count)
    other = (col + rng.integers(1, k, count)) % k
    rows = np.arange(count)
    bad[rows[0::3], col[0::3]] = bad[rows[0::3], other[0::3]]
    bad[rows[1::3], col[1::3]] = -1 - rng.integers(0, 3, len(rows[1::3]))
    bad[rows[2::3], col[2::3]] = v + rng.integers(0, 3, len(rows[2::3]))
    every = np.concatenate([blocks, images, subsets, bad])
    return rng.permuted(every, axis=1)


class TestRankedLookupDifferential:
    """The ranked 3-subset lookup against the prefix lookup it stands in
    for, on every row the two can be given."""

    @pytest.mark.parametrize("name", ["aff3", "aff4", "aff5", "aff6", "aff7", "s33", "s53", "n43", "n127"])
    def test_random_and_permuted_rows(self, name, ranked_designs):
        design = ranked_designs[name]
        assert design._rank_table() is not None
        rng = np.random.default_rng(design.v * design.k)
        rows = _query_rows(design, rng, 3000)
        for dtype in (np.int32, np.int64, np.uint8):
            # uint8 wraps the negative points round to large ones
            typed = rows.astype(dtype)
            got = design.block_index(typed)
            assert got.tolist() == design._prefix_lookup(typed).tolist()
        found = design.block_index(rows)
        assert (found[:3000] == design.block_index(np.sort(rows[:3000], axis=1))).all()
        assert (found[:3000] >= 0).all()
        assert (found[-3000:] == -1).all()

    def test_rows_of_the_wrong_width(self, ranked_designs):
        design = ranked_designs["aff4"]
        rows = design.block_array[:5]
        for width in (rows[:, :3], np.concatenate([rows, rows[:, :1]], axis=1)):
            assert design.block_index(width).tolist() == [-1] * 5

    def test_one_row_at_a_time(self, ranked_designs):
        design = ranked_designs["s53"]
        for i in (0, 1, design.b - 1):
            block = list(design.blocks[i])
            assert design.block_index(block[::-1]) == i
            assert design.block_index(block[:-1] + block[:1]) == -1

    @pytest.mark.parametrize(
        "blocks",
        [
            [s for s in combinations(range(7), 4) if sum(s) % 2 == 0],
            list(combinations(range(6), 4)),
            [(0, 1, 2, 3), (0, 1, 2, 4)],
        ],
        ids=["even-sum", "all-4-sets", "two-blocks"],
    )
    def test_a_repeated_3_subset_keeps_the_prefix_lookup(self, blocks):
        design = Design(max(map(max, blocks)) + 1, 3, blocks)
        assert design._rank_table() is None
        queries = [list(s) for s in combinations(range(design.v), 4)]
        random.Random(3).shuffle(queries)
        want = [_reference_index(design, q) for q in queries]
        assert design.block_index(np.array(queries)).tolist() == want

    @pytest.mark.parametrize("k", [1, 2])
    def test_small_blocks_build_no_table(self, k):
        design = Design(9, k, [s for s in combinations(range(9), k) if s[0] % 3 == 0])
        assert design._rank_table() is None
        queries = np.array(list(permutations(range(9), k)))
        want = [_reference_index(design, q) for q in queries]
        assert design.block_index(queries).tolist() == want

    def test_more_than_128_points_build_no_table(self):
        design = Design(200, 3, [(0, 1, 2, 3), (4, 5, 6, 199)])
        assert design._rank_table() is None
        assert design._ranks == "no ranked 3-subset table for blocks of 4 points on 200 points"
        rows = np.array([[3, 2, 1, 0], [199, 6, 5, 4], [0, 1, 2, 4]])
        assert design.block_index(rows).tolist() == [0, 1, -1]

    def test_array_loaded_flag_reports(self, flag_transitive_pairs):
        for label, design, gens in flag_transitive_pairs:
            loaded = from_json(to_json(design))
            assert is_flag_transitive(loaded, gens) == is_flag_transitive(design, gens), label


def reference_from_json(text: str) -> Design:
    """The loader that turned every parsed block into a tuple and built
    the design from the tuple list."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DesignError(f"invalid design JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DesignError("design JSON must be an object")
    for key in ("v", "t", "blocks"):
        if key not in payload:
            raise DesignError(f"design JSON is missing {key!r}")
    lam = payload.get("lambda", 1)
    if type(lam) is not int or lam != 1:
        raise DesignError("only lambda = 1 designs are supported")
    for key in ("v", "t"):
        if type(payload[key]) is not int:
            raise DesignError(f"{key!r} must be an integer, got {payload[key]!r}")
    blocks = payload["blocks"]
    if (
        type(blocks) is not list
        or not set(map(type, blocks)) <= {list}
        or not set(map(type, chain.from_iterable(blocks))) <= {int}
    ):
        raise DesignError("'blocks' must be a list of lists of integers")
    labels = payload.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(label, str) for label in labels)
    ):
        raise DesignError("'labels' must be a list of strings")
    return Design(payload["v"], payload["t"], [tuple(block) for block in blocks], labels)


def _load_outcome(load, text: str):
    try:
        design = load(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return design, design.blocks, to_json(design)


_BAD_POINTS = (2**70, -(2**70), 2**31, -1, 8)


class TestArrayLoaderDifferential:
    """`from_json`, which fills one block array, against the loader that
    built a tuple per block: the same design, or the same error."""

    def test_catalogue_designs(self, catalogue):
        for key, design in sorted(catalogue.items()):
            text = to_json(design)
            # loaded as one array, no tuple built
            assert from_json(text)._blocks is None, key
            loaded, blocks, emitted = _load_outcome(from_json, text)
            assert (loaded, blocks, emitted) == _load_outcome(reference_from_json, text), key
            assert loaded == design and emitted == text, key

    def test_labels_and_lambda(self):
        text = json.dumps({"v": 4, "t": 2, "lambda": 1, "labels": list("abcd"), "blocks": [[0, 1], [2, 3]]})
        assert _load_outcome(from_json, text) == _load_outcome(reference_from_json, text)

    @pytest.mark.parametrize(
        "v, blocks",
        [
            (8, [[0, 1, 2, True]]),
            (8, [[0, 1, 2, 3.0]]),
            (8, [[0, 1, 2], [0, 1, 2, 3]]),
            (8, [[0, 1, 2, 3], []]),
            (8, [[]]),
            (8, []),
            (8, [[0, 1, 2, 4], [0, 1, 2, 3]]),
            (8, [[0, 2, 1, 3]]),
            (8, [[0, 1, 2, 3], [0, 1, 2, 3]]),
            (8, [[0, 1, 1, 3]]),
            *[(8, [[0, 1, 2, p]]) for p in _BAD_POINTS],
            *[(8, [[p, 1, 2, 3]]) for p in _BAD_POINTS],
            (2**100, [[0, 1, 2, 3]]),
            (2**100, [[0, 1, 2, 2**70]]),
            (2**100, [[3, 1, 2, 2**70], [0, 1, 2, 3]]),
            (2**31, [[0, 1, 2, 2**31 - 1]]),
            (2**31 + 1, [[0, 1, 2, 2**31]]),
            (0, [[0, 1, 2, 3]]),
            (-5, [[0, 1, 2, 3]]),
        ],
    )
    def test_same_design_or_same_error(self, v, blocks):
        for t in (3, 0):
            text = json.dumps({"v": v, "t": t, "blocks": blocks})
            assert _load_outcome(from_json, text) == _load_outcome(reference_from_json, text)

    def test_random_block_lists(self):
        rng = random.Random(16)
        for _ in range(300):
            v, k = rng.randint(1, 12), rng.randint(0, 4)
            blocks = [rng.sample(range(-1, v + 1), min(k, v + 2)) for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.5:
                blocks = sorted(sorted(b) for b in blocks)
            text = json.dumps({"v": v, "t": 2, "blocks": blocks})
            assert _load_outcome(from_json, text) == _load_outcome(reference_from_json, text)


def reference_to_json(design: Design) -> str:
    """The writer that handed the payload, blocks as tuples, to json.dumps."""
    payload: dict = {"v": design.v, "t": design.t, "lambda": 1}
    if design.labels is not None:
        payload["labels"] = list(design.labels)
    payload["blocks"] = design.blocks
    return json.dumps(payload, separators=(",", ":")) + "\n"


def reference_boolean_affine(d: int) -> list[tuple[int, ...]]:
    """The planes of AG(d,2) as the comprehension over 3-subsets built them."""
    n = 1 << d
    return [(x, y, z, x ^ y ^ z) for x, y, z in combinations(range(n), 3) if x ^ y ^ z > z]


@pytest.fixture(scope="module")
def designs_to_128():
    """Every catalogue design on at most 128 points, as its constructor
    builds it: affine d = 3..7, every spherical and Netto design, Witt."""
    designs = {f"aff{d}": construct_boolean_affine(d) for d in range(3, 8)}
    designs.update({f"s{q},{e}": construct_spherical(q, e) for q, e in SPHERICAL_TO_128})
    designs.update({f"n{q}": construct_netto_extension(q) for q in NETTO_TO_128})
    designs["witt"] = catalog.construct_witt_22()
    return designs


def _chunk_edge_designs():
    """Designs of one block less than, exactly and one more than one and
    two chunks of the row writer, built from tuples and from an array."""
    quads = list(combinations(range(40), 4))
    for b in (CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS, 2 * CHUNK_ROWS + 1):
        design = Design(40, 3, quads[:b])
        yield design
        yield Design(40, 3, design.block_array)


# to_json of the 3-(8,4,1) design, AG(3,2), whose near misses follow
_AFF3 = to_json(Design(8, 3, reference_boolean_affine(3)))


class TestCanonicalLoaderDifferential:
    """`from_json` parses a text in to_json's layout straight into one
    int32 array, and keeps it only when the row writer gives the text
    back; any other text goes through `json.loads`.  Either way the
    outcome must be the one `reference_from_json` gives."""

    def test_designs_to_128_points(self, designs_to_128):
        for name, design in designs_to_128.items():
            text = to_json(design)
            assert _canonical_rows(text) is not None, name
            loaded = from_json(text)
            assert loaded._blocks is None and loaded.block_array.dtype == np.int32, name
            want = reference_from_json(text)
            assert loaded == want == design, name
            assert to_json(loaded) == text, name

    def test_chunk_edges(self):
        for design in _chunk_edge_designs():
            text = to_json(design)
            assert _canonical_rows(text) is not None, design.b
            assert from_json(text) == design

    @pytest.mark.parametrize(
        "text,fast",
        [
            (_AFF3, True),
            (_AFF3[:-1], True),
            (_AFF3.replace("[0,1,2,3]", "[0, 1,2,3]"), False),
            (_AFF3.replace('{"v":8,', '{ "v":8,'), False),
            (_AFF3 + " ", False),
            (_AFF3.replace("[0,1,4,5]", "[0,1,04,5]"), False),
            (_AFF3.replace("[0,1,4,5]", "[-0,1,4,5]"), False),
            (_AFF3.replace('"v":8', '"v":08'), False),
            (_AFF3.replace('"v":8', '"v":-0'), False),
            (_AFF3.replace("[0,1,4,5]", "[0,1,4,5e0]"), False),
            (_AFF3.replace("[0,1,2,3]", "[0,1,2,1e2]"), False),
            (_AFF3.replace("[0,1,2,3]", "[0,1,2.0,3]"), False),
            (_AFF3.replace("[0,1,2,3]", "[true,1,2,3]"), False),
            (_AFF3.replace("[0,1,2,3]", "[0,1,2,2147483648]"), False),
            (_AFF3.replace("[0,1,2,3]", "[0,1,2,4294967299]"), False),
            (_AFF3.replace("[0,1,2,3]", "[-1,1,2,3]"), True),
            (_AFF3[:-3] + '],"blocks":[[0,1,2,3]]}\n', False),
            (_AFF3.replace('"lambda":1', '"lambda":1.0'), False),
            (_AFF3.replace('"lambda":1', '"lambda":1,"labels":["a","b","c","d","e","f","g","h"]'), False),
            (_AFF3 + "x", False),
            (_AFF3 + "\n\n", False),
            (_AFF3[:-5], False),
            (_AFF3[: len(_AFF3) // 2], False),
            (_AFF3.replace("[0,1,2,3],[0,1,4,5]", "[0,1,4,5],[0,1,2,3]"), True),
            (_AFF3.replace("[0,1,2,3]", "[0,1,2]"), False),
            (_AFF3.replace("[0,1,2,3]", "[0,1,2,3,4]"), False),
            (_AFF3.replace("[0,1,2,3]", "[0,1,2,3],[0,1,2,3]"), True),
            (_AFF3.replace("[0,1,2,3]", "[0,1,3,2]"), True),
            (_AFF3.replace("[0,1,2,3]", "[0,1,2,3]]"), False),
            (_AFF3.replace("[0,1,2,3]", "[[0,1,2,3]"), False),
            (_AFF3.replace("[0,1,2,3],", "[0,1,2,3],,"), False),
            ('{"v":8,"t":3,"lambda":1,"blocks":[]}\n', False),
            ('{"v":8,"t":3,"lambda":1,"blocks":[[]]}\n', False),
            ('{"v":8,"t":3,"lambda":1,"blocks":[[0,1,2,3]]}\n', True),
            ('{"v":0,"t":3,"lambda":1,"blocks":[[0,1,2,3]]}\n', True),
            ('{"v":8,"t":-3,"lambda":1,"blocks":[[0,1,2,3]]}\n', True),
        ],
        ids=[
            "canonical", "no-newline", "inner-space", "outer-space", "trailing-space",
            "leading-zero", "minus-zero", "leading-zero-v", "minus-zero-v", "exponent",
            "1e2", "float", "true", "2^31", "2^32+3", "negative", "second-blocks",
            "lambda-float", "labels", "trailing-bytes", "two-newlines", "truncated",
            "half", "unsorted", "short-row", "long-row", "repeated", "unsorted-row",
            "extra-bracket", "nested-row", "empty-field", "no-blocks", "empty-block",
            "one-block", "no-points", "negative-t",
        ],
    )
    def test_near_misses(self, text, fast):
        assert (_canonical_rows(text) is not None) == fast
        assert _load_outcome(from_json, text) == _load_outcome(reference_from_json, text)


def _parametrized(test) -> list[tuple]:
    """The argument tuples a parametrized test above runs with."""
    (mark,) = [mark for mark in test.pytestmark if mark.name == "parametrize"]
    return list(mark.args[1])


def _reference_bytes(data: bytes):
    """The reference loader on a file's bytes, decoded as the CLI decoded
    them when it read text: strict UTF-8, which names the first bad byte."""
    return reference_from_json(data.decode("utf-8"))


def _assert_same_from_bytes(data: bytes):
    outcome = _load_outcome(from_json, data)
    assert outcome == _load_outcome(_reference_bytes, data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    assert outcome == _load_outcome(from_json, text)


# the affine 3-(8,4,1) document with non-ASCII bytes in its canonical
# layout, and with bytes that are not UTF-8 before, in and after the head
_AFF3_BYTES = _AFF3.encode()
_BYTE_CASES = [
    _AFF3.replace("[0,1,2,3]", "[0,1,2,3\u00e9]").encode(),
    _AFF3.replace("[0,1,2,3]", "[0,1,2,\u0663]").encode(),  # an Arabic-Indic 3
    _AFF3.replace('"v":8', '"v":\u0668').encode(),
    _AFF3.replace("[0,1,2,3]", "[0,1,2,\uff13]").encode(),  # a fullwidth 3
    "\ufeff".encode() + _AFF3_BYTES,
    b"\xff" + _AFF3_BYTES,
    b"\xef\xbb" + _AFF3_BYTES,
    _AFF3_BYTES.replace(b'"t"', b'"t\xe9"'),
    _AFF3_BYTES.replace(b"[0,1,2,3]", b"[0,1,2,\xff3]"),
    _AFF3_BYTES.replace(b"[0,1,2,3]", b"[0,1,2,3\xed\xa0\x80]"),  # an encoded surrogate
    _AFF3_BYTES[:-3] + b"\xc3]}\n",
    _AFF3_BYTES + b"\x80",
    b'{"v": 8, "t": 3, "labels": ["\xe9"]}',
    b'{"v":2,"t":1,"lambda":1,"labels":["\xc3\xa9","\xe2\x98\x83"],"blocks":[[0],[1]]}',
]


class TestByteLoaderDifferential:
    """`from_json` of a file's bytes, of the same document as text, and
    the reference loader of the decoded text: the same design, blocks
    and `to_json` text, or the same error.  Bytes that are not UTF-8
    raise the UnicodeDecodeError that decoding them raises."""

    def test_catalogue_designs(self, designs_to_128, catalogue):
        for design in [*designs_to_128.values(), *catalogue.values()]:
            data = to_json(design).encode()
            loaded = from_json(data)
            assert loaded._blocks is None and loaded == design, design
            _assert_same_from_bytes(data)

    def test_array_loader_faults(self):
        for v, blocks in _parametrized(TestArrayLoaderDifferential.test_same_design_or_same_error):
            for t in (3, 0):
                _assert_same_from_bytes(json.dumps({"v": v, "t": t, "blocks": blocks}).encode())

    def test_canonical_loader_near_misses(self):
        for text, fast in _parametrized(TestCanonicalLoaderDifferential.test_near_misses):
            assert (_canonical_rows(text.encode()) is not None) == fast, text
            _assert_same_from_bytes(text.encode())

    @pytest.mark.parametrize("data", _BYTE_CASES, ids=range(len(_BYTE_CASES)))
    def test_non_ascii_and_non_utf8_bytes(self, data):
        assert _canonical_rows(data) is None
        _assert_same_from_bytes(data)

    def test_a_lone_surrogate_in_text(self):
        text = '{"v":2,"t":1,"labels":["\ud800","a"],"blocks":[[0],[1]]}'
        assert _load_outcome(from_json, text) == _load_outcome(reference_from_json, text)


class TestBlockWriterDifferential:
    """`to_json` writes the blocks in chunks of rows, one %-format each;
    `reference_to_json` hands the block tuples to json.dumps."""

    def test_designs_to_128_points(self, designs_to_128):
        for name, design in designs_to_128.items():
            text = to_json(design)  # from the array the constructor built
            tuples = Design(design.v, design.t, design.blocks)
            # built from tuples, it holds the same int32 array
            assert tuples.block_array.dtype == np.int32, name
            assert np.array_equal(tuples.block_array, design.block_array), name
            assert text == to_json(tuples) == reference_to_json(design), name

    def test_derived_designs(self, designs_to_128):
        for name, design in designs_to_128.items():
            for x in sorted({0, design.v // 2, design.v - 1}):
                derived = derived_design(design, x)
                assert to_json(derived) == reference_to_json(derived), (name, x)

    def test_labelled_designs(self, designs_to_128):
        labels = ["p", 'q"uote', "back\\slash", "caf\u00e9", "tab\t", "\u2603"]
        for name, design in designs_to_128.items():
            names = [labels[i % len(labels)] + str(i) for i in range(design.v)]
            for blocks in (design.block_array, design.blocks):
                labelled = Design(design.v, design.t, blocks, labels=names)
                text = to_json(labelled)
                assert text == reference_to_json(labelled), name
                assert from_json(text) == labelled, name

    def test_chunk_edges(self):
        for design in _chunk_edge_designs():
            assert to_json(design) == reference_to_json(design), design.b


@pytest.mark.parametrize("d", range(3, 8))
def test_boolean_affine_against_the_comprehension(d):
    design = construct_boolean_affine(d)
    assert design._blocks is None
    assert design.block_array.dtype == np.int32
    assert design.block_array.tolist() == [list(block) for block in reference_boolean_affine(d)]


def reference_derived_design(design: Design, x: int) -> Design:
    """The derived design as the comprehension over the block tuples
    built it."""
    blocks = [
        tuple(p if p < x else p - 1 for p in block if p != x)
        for block in design.blocks
        if x in block
    ]
    labels = None
    if design.labels is not None:
        labels = design.labels[:x] + design.labels[x + 1 :]
    return Design(design.v - 1, design.t - 1, blocks, labels)


def _labelled(design: Design) -> Design:
    return Design(design.v, design.t, design.block_array, [f"p{i}" for i in range(design.v)])


def _assert_same_derived(design: Design, x: int, label) -> Design:
    derived, want = derived_design(design, x), reference_derived_design(design, x)
    assert derived == want and derived.labels == want.labels, label
    assert derived.blocks == want.blocks, label
    return derived


class TestDerivedDesignDifferential:
    """`derived_design` takes the rows through x from the block array;
    the comprehension over the block tuples must give the same design,
    labels included."""

    def test_designs_to_128_points(self, designs_to_128):
        for name, design in designs_to_128.items():
            for x in sorted({0, design.v // 2, design.v - 1}):
                _assert_same_derived(design, x, (name, x))
                _assert_same_derived(_labelled(design), x, (name, x, "labelled"))

    def test_witt_chain(self):
        octads = catalog.construct_octad_design()
        for design in (octads, _labelled(octads)):
            first = _assert_same_derived(design, 23, "octads -> 23")
            second = _assert_same_derived(first, 22, "23 -> 22")
            assert (first.b, second.b) == (253, 77)
            assert np.array_equal(second.block_array, catalog.construct_witt_22().block_array)
        assert second.labels == tuple(f"p{i}" for i in range(22))


def test_designs_hold_no_tuple_form_until_read():
    # every constructor, a derivation and both paths of from_json give
    # the array alone; reading `.blocks` builds the tuples once
    witt = catalog.construct_witt_22()
    text = to_json(witt)
    spaced = text.replace(",", ", ")
    assert _canonical_rows(text) is not None and _canonical_rows(spaced) is None
    designs = [
        construct_boolean_affine(3),
        construct_spherical(3, 2),
        construct_netto_extension(7),
        catalog.construct_octad_design(),
        witt,
        derived_design(witt, 0),
        from_json(text),
        from_json(spaced),
    ]
    for design in designs:
        assert design._blocks is None, design
        assert design.blocks is design.blocks and design._blocks is not None, design


class TestBlockActionDifferential:
    def test_automorphisms(self, flag_transitive_pairs):
        for label, design, gens in flag_transitive_pairs:
            for g in gens.gens:
                induced = block_action(design, g)
                assert induced.tolist() == list(_block_images(design, g)), label
                assert induced.dtype == np.int32 and not induced.flags.writeable, label

    def test_witness_of_random_permutations(self, catalogue):
        rng = random.Random(2024)
        for key, design in sorted(catalogue.items()):
            for _ in range(5):
                g = _random_permutation(rng, design.v)
                witness = _reference_witness(design, g)
                if witness is None:
                    induced = block_action(design, g)
                    assert induced.tolist() == list(_block_images(design, g)), key
                    assert induced.dtype == np.int32 and not induced.flags.writeable, key
                    continue
                with pytest.raises(SetNotPreserved) as err:
                    block_action(design, g)
                assert err.value.witness == witness, key

    def test_witness_comes_from_the_first_offending_generator(self, catalogue):
        design = catalogue[("netto", 19)]
        good = projective_group_generators("PSL", 19, 1).gens
        low, high = (1, 0) + tuple(range(2, 20)), tuple(range(18)) + (19, 18)
        witnesses = _reference_witness(design, low), _reference_witness(design, high)
        assert None not in witnesses and witnesses[0] != witnesses[1]
        for bad, want in ((low, high), witnesses[0]), ((high, low), witnesses[1]):
            with pytest.raises(SetNotPreserved) as err:
                is_flag_transitive(design, GeneratorSet(design.v, good + bad))
            assert err.value.witness == want


def reference_image_rows(design: Design, g: tuple[int, ...]) -> np.ndarray:
    """The image of every block under g, as the transpose of a C-ordered
    (k, b) int32 array, whose columns the lookup reads without a copy.
    It is filled CHUNK_ROWS blocks at a time: take copies its indices to
    intp, so one gather over every block would hold twice the blocks."""
    perm = np.asarray(g, dtype=np.int32)
    blocks = design.block_array
    columns = np.empty((design.k, design.b), dtype=np.int32)
    for start in range(0, design.b, CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        columns[:, start:stop] = perm.take(blocks[start:stop].T)
    return columns.T


def _assert_same_block_action(design: Design, g: tuple, label) -> int | None:
    """`block_action` against one lookup of every block's image; the
    index of the witness block when g does not preserve the blocks."""
    want = design.block_index(reference_image_rows(design, g))
    missing = np.flatnonzero(want < 0)
    if missing.size:
        with pytest.raises(SetNotPreserved) as err:
            block_action(design, g)
        assert err.value.witness == tuple(design.block_array[missing[0]].tolist()), label
        return int(missing[0])
    induced = block_action(design, g)
    assert induced.dtype == np.int32 and not induced.flags.writeable, label
    assert induced.tolist() == want.tolist(), label
    return None


def _transposition(n: int, a: int, b: int) -> tuple:
    images = list(range(n))
    images[a], images[b] = b, a
    return tuple(images)


@pytest.fixture(scope="module")
def prefix_path_designs():
    """Designs whose blocks `block_index` finds by prefix keys: blocks of
    2 points, 4-subsets sharing 3-subsets, and 200 points with more than
    CHUNK_ROWS blocks."""
    return {
        "pairs": Design(10, 2, [s for s in combinations(range(10), 2) if sum(s) % 2 == 0]),
        "even-sum": Design(7, 3, [s for s in combinations(range(7), 4) if sum(s) % 2 == 0]),
        "200-points": Design(200, 3, list(combinations(range(50), 3)) + [(150, 151, 199)]),
    }


class TestChunkedBlockActionDifferential:
    """`block_action`, which maps and looks up CHUNK_ROWS blocks at a
    time, against one lookup of the image rows of every block at once,
    `reference_image_rows`: the same induced permutation or the same
    witness, on both lookup paths and across chunk edges."""

    def test_catalogue_groups(self, flag_transitive_pairs):
        for label, design, gens in flag_transitive_pairs:
            for g in gens.gens:
                assert _assert_same_block_action(design, g, label) is None

    def test_random_permutations(self, catalogue):
        rng = random.Random(22)
        for key, design in sorted(catalogue.items()):
            for _ in range(5):
                _assert_same_block_action(design, _random_permutation(rng, design.v), key)

    def test_netto_127(self, ranked_designs):
        # 85344 = 5 * 16384 + 3424 blocks: the last chunk is short
        design = ranked_designs["n127"]
        assert design.b > CHUNK_ROWS and design.b % CHUNK_ROWS
        for g in projective_group_generators("PSL", 127, 1).gens:
            assert _assert_same_block_action(design, g, "PSL(2,127)") is None
        rng = random.Random(127)
        for _ in range(3):
            assert _assert_same_block_action(design, _random_permutation(rng, 128), "n127") == 0

    def test_witness_in_a_later_chunk(self, ranked_designs):
        # the Netto blocks missing 126 and 127, and the last block
        # through 127 alone: swapping 126 and 127 moves only that block,
        # to a 4-set that is no block
        rows = ranked_designs["n127"].block_array
        keep = ~np.isin(rows, (126, 127)).any(axis=1)
        late = np.flatnonzero((rows == 127).any(axis=1) & ~(rows == 126).any(axis=1))[-1]
        keep[late] = True
        design = Design(128, 3, rows[keep])
        assert design._rank_table() is not None and design.b % CHUNK_ROWS
        witness = _assert_same_block_action(design, _transposition(128, 126, 127), "late")
        assert design.block_index(rows[late]) == witness >= 4 * CHUNK_ROWS
        assert _assert_same_block_action(design, _transposition(128, 0, 1), "early") < CHUNK_ROWS

    @pytest.mark.parametrize("name", ["pairs", "even-sum", "200-points"])
    def test_prefix_lookup(self, name, prefix_path_designs):
        design = prefix_path_designs[name]
        assert design._rank_table() is None
        # swapping two points of the same parity, or two of the first 50,
        # preserves every block
        assert _assert_same_block_action(design, _transposition(design.v, 0, 2), name) is None
        rng = random.Random(design.v)
        for _ in range(5):
            _assert_same_block_action(design, _random_permutation(rng, design.v), name)

    def test_prefix_lookup_across_a_chunk_edge(self, prefix_path_designs):
        design = prefix_path_designs["200-points"]
        assert design.b == CHUNK_ROWS + 3217
        g = _transposition(200, 151, 152)
        assert _assert_same_block_action(design, g, "200-points") == design.b - 1


class TestFlagReportDifferential:
    def test_flag_transitive_pairs(self, flag_transitive_pairs):
        for label, design, gens in flag_transitive_pairs:
            _assert_same_report(design, gens, label)

    def test_psl29_on_spherical32(self, catalogue):
        design = catalogue[("spherical", 3, 2)]
        report = _assert_same_report(design, projective_group_generators("PSL", 3, 2))
        assert report.block_orbit_sizes == (15, 15)

    def test_agl116_on_affine4(self, catalogue):
        design = catalogue[("affine", 4)]
        report = _assert_same_report(design, affine_group_generators("AGL_1", 4))
        assert (report.flag_orbit_size, report.flag_count) == (240, 560)
        assert report.block_orbit_sizes == (60, 60, 20)

    def test_trivial_group(self):
        _assert_same_report(construct_boolean_affine(3), GeneratorSet(8, ()))

    @pytest.mark.parametrize("key", [("spherical", 3, 2), ("netto", 19), ("witt",)])
    def test_empty_generator_set(self, catalogue, key):
        design = catalogue[key]
        report = _assert_same_report(design, GeneratorSet(design.v, ()))
        assert report.flag_orbit_size == 1
        assert report.block_orbit_count == design.b
        assert report.point_pair_orbit_count == design.v * (design.v - 1)

    def test_blocks_sharing_three_points(self):
        # every 4-subset of 6 points under S6, and under the 6-cycle alone
        design = Design(6, 3, combinations(range(6), 4))
        cycle = (1, 2, 3, 4, 5, 0)
        report = _assert_same_report(design, GeneratorSet(6, [(1, 0, 2, 3, 4, 5), cycle]))
        assert report.flag_transitive and report.point_2_transitive
        report = _assert_same_report(design, GeneratorSet(6, [cycle]))
        assert report.block_orbit_sizes == (6, 6, 3)

    @pytest.mark.parametrize("k", [1, 2])
    def test_small_blocks(self, k):
        # the k-subsets of 5 points under the dihedral group of the pentagon
        design = Design(5, 1, combinations(range(5), k))
        gens = GeneratorSet(5, [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)])
        report = _assert_same_report(design, gens)
        assert report.block_orbit_count == k

    def test_agammal1128_on_affine7(self):
        design = construct_boolean_affine(7)
        report = _assert_same_report(design, affine_group_generators("AGammaL_1", 7))
        assert (report.flag_orbit_size, report.flag_count) == (113792, 341376)
        assert report.block_orbit_sizes == (28448, 28448, 28448)

    def test_point_stabilizer_subgroup(self):
        # x -> x^3 fixes GF(3) and infinity on the line over GF(9): a
        # group of order 2 with several point, pair and block orbits
        design = construct_spherical(3, 2)
        frob = projective_group_generators("PSigmaL", 3, 2).gens[-1]
        report = _assert_same_report(design, GeneratorSet(10, (frob,)))
        assert report.point_orbit_count > 1

    def test_subgroups_of_catalogue_groups(self, flag_transitive_pairs):
        # some of a group's generators and products of two of them: the
        # point stabiliser is then often non-trivial and splits the
        # blocks through the point into several orbits
        small = [(label, design, gens) for label, design, gens in flag_transitive_pairs
                 if design.v <= 32]

        @settings(derandomize=True, database=None, deadline=None, max_examples=12)
        @given(st.data())
        def check(data):
            label, design, gens = data.draw(st.sampled_from(small))
            index = st.integers(0, len(gens.gens) - 1)
            picks = data.draw(st.lists(st.tuples(index, st.none() | index), min_size=1, max_size=3))
            chosen = [gens.gens[i] if j is None else _product(gens.gens[i], gens.gens[j])
                      for i, j in picks]
            _assert_same_report(design, GeneratorSet(design.v, chosen), label)

        check()


# -- orbit partitions ------------------------------------------------------------
#
# The orbit partition as it was before each seed was found by `argmin`:
# a Python test of every state.  Kept verbatim but for its name.


def reference_orbit_sizes(table: np.ndarray, skip: slice = slice(0)) -> list[int]:
    covered = np.zeros(table.shape[1], dtype=bool)
    covered[skip] = True
    sizes = []
    for seed in range(len(covered)):
        if not covered[seed]:
            part = orbit(table, [seed])
            covered[part] = True
            sizes.append(len(part))
    return sizes


def _flag_tables(design: Design, gens: GeneratorSet) -> dict[str, np.ndarray]:
    """The block, point and pair tables `is_flag_transitive` partitions."""
    v = design.v
    points = _image_table(gens.gens, v)
    blocks = np.array([block_action(design, g) for g in gens.gens])
    pairs = (points[:, :, np.newaxis] * v + points[:, np.newaxis, :]).reshape(-1, v * v)
    return {"blocks": blocks, "points": points, "pairs": pairs}


# the four flag checks of the benchmark's groups workload
GROUPS_FLAG_CHECKS = {
    "AGL(6,2) on affine d=6": (lambda: construct_boolean_affine(6), ("AGL_d_2", 6)),
    "AGammaL(1,128) on affine d=7": (lambda: construct_boolean_affine(7), ("AGammaL_1", 7)),
    "PSL(2,127) on netto q=127": (lambda: construct_netto_extension(127), ("PSL", 127, 1)),
    "PGammaL(2,125) on spherical (5,3)": (lambda: construct_spherical(5, 3), ("PGammaL", 5, 3)),
}


class TestOrbitSizesDifferential:
    @pytest.mark.parametrize("label", sorted(GROUPS_FLAG_CHECKS))
    def test_groups_flag_checks(self, label):
        construct, recipe = GROUPS_FLAG_CHECKS[label]
        design = construct()
        if len(recipe) == 2:
            gens = affine_group_generators(*recipe)
        else:
            gens = projective_group_generators(*recipe)
        for name, table in _flag_tables(design, gens).items():
            got = permgrp._orbit_sizes(table)
            assert got == reference_orbit_sizes(table), (label, name)

    def test_identity_generator(self):
        # one orbit per state: the search for each seed resumes at the last
        table = np.arange(3000, dtype=np.int32)[np.newaxis]
        got = permgrp._orbit_sizes(table)
        assert got == reference_orbit_sizes(table)
        assert got == [1] * 3000

    def test_subgroups_of_catalogue_groups(self, flag_transitive_pairs):
        # single generators split the states into many orbits of mixed sizes
        for label, design, gens in flag_transitive_pairs:
            for g in gens.gens[:2]:
                for name, table in _flag_tables(design, GeneratorSet(design.v, (g,))).items():
                    got = permgrp._orbit_sizes(table)
                    assert got == reference_orbit_sizes(table), (label, name)

    def test_no_generators(self):
        # a table of no rows: every state its own orbit, found at once
        table = np.zeros((0, 3000), dtype=np.int32)
        got = permgrp._orbit_sizes(table)
        assert got == reference_orbit_sizes(table)
        assert got == [1] * 3000

    def test_identity_only_flag_check(self, netto127):
        # no generator is admitted, so every block, point and pair is an
        # orbit of its own; each used to take a bitmap as wide as the
        # table, 4.7 s end to end
        design, identity = netto127, tuple(range(128))
        design.block_array
        started = time.perf_counter()
        report = is_flag_transitive(design, GeneratorSet(128, (identity,)))
        elapsed = time.perf_counter() - started
        assert report.flag_orbit_size == 1
        assert report.block_orbit_sizes == (1,) * design.b
        assert (report.point_orbit_count, report.point_pair_orbit_count) == (128, 128 * 127)
        assert elapsed < 0.5


@pytest.fixture(scope="module")
def netto127():
    return construct_netto_extension(127)


# -- the flag check through admitted generators --------------------------------------
#
# `_flag_report` as it was before it read the orbits through the
# generators the stabilizer chain admits: `block_action` on every
# generator first, and block, point and pair tables of every generator.
# Kept verbatim but for its name, with `reference_schreier_sims` and
# `reference_orbit_sizes` for the library's chain and partition.


def reference_every_generator_flag_report(design: Design, gens: GeneratorSet) -> FlagReport:
    if gens.degree != design.v:
        raise permgrp.PermutationError(
            f"generator degree {gens.degree} != point count {design.v}"
        )
    v, b, k = design.v, design.b, design.k
    points = _image_table(gens.gens, v)
    blocks = np.empty((len(points), b), dtype=np.int32)
    for i, g in enumerate(gens.gens):
        blocks[i] = block_action(design, g)
    pairs = (points[:, :, np.newaxis] * v + points[:, np.newaxis, :]).reshape(-1, v * v)

    x0 = int(design.block_array[0, 0])
    levels, _, _ = reference_schreier_sims(gens, (x0,))
    stabilizer = levels[1].gens if len(levels) > 1 else []
    through = np.flatnonzero((design.block_array == x0).any(axis=1))
    rows = _image_table(stabilizer, v)[:, design.block_array[through]]
    images = design.block_index(rows.reshape(-1, k))
    local = np.searchsorted(through, images).reshape(len(stabilizer), len(through))
    flag_orbit_size = len(levels[0].transversal) * len(orbit(local, [0]))
    flag_count = b * k
    block_orbit_sizes = reference_orbit_sizes(blocks)
    point_orbit_sizes = reference_orbit_sizes(points)
    pair_orbit_sizes = reference_orbit_sizes(pairs, skip=slice(None, None, v + 1))
    return FlagReport(
        v=v,
        b=b,
        k=k,
        preserves_blocks=True,
        flag_count=flag_count,
        flag_orbit_size=flag_orbit_size,
        block_orbit_count=len(block_orbit_sizes),
        block_orbit_sizes=tuple(block_orbit_sizes),
        point_orbit_count=len(point_orbit_sizes),
        point_pair_orbit_count=len(pair_orbit_sizes),
        flag_transitive=flag_orbit_size == flag_count,
        block_transitive=len(block_orbit_sizes) == 1,
        point_transitive=len(point_orbit_sizes) == 1,
        point_2_transitive=len(pair_orbit_sizes) == 1,
    )


def catalogue_flag_checks() -> dict[str, tuple]:
    """Each catalogue group on at most 128 points, but the Witt design's,
    with the constructor and arguments of the design it acts on."""
    constructors = {
        "affine": construct_boolean_affine,
        "spherical": construct_spherical,
        "netto": construct_netto_extension,
    }
    checks = {}
    for v in range(5, 129):
        for k in range(4, v):
            for row in catalog.classify(v, k):
                if row.family in constructors:
                    params = tuple(value for _, value in row.params)
                    for name, _ in row.groups:
                        checks[name] = (constructors[row.family], params)
    return checks


CATALOGUE_FLAG_CHECKS = catalogue_flag_checks()


@functools.cache
def _catalogue_design(construct, params: tuple) -> Design:
    return construct(*params)


def _flag_outcome(check, design: Design, gens: GeneratorSet):
    """The report, or the type and witness of the error raised."""
    try:
        return check(design, gens)
    except SetNotPreserved as exc:
        return SetNotPreserved, exc.witness


class TestAdmittedFlagReportDifferential:
    def test_every_catalogue_group_is_covered(self):
        assert sorted(CATALOGUE_FLAG_CHECKS) == sorted(CATALOGUE_GROUPS)

    @pytest.mark.parametrize("name", sorted(CATALOGUE_FLAG_CHECKS))
    def test_catalogue_groups(self, name):
        design = _catalogue_design(*CATALOGUE_FLAG_CHECKS[name])
        gens = CATALOGUE_GROUPS[name]
        report = is_flag_transitive(design, gens)
        assert report == reference_every_generator_flag_report(design, gens)

    def test_flag_transitive_pairs(self, flag_transitive_pairs):
        for label, design, gens in flag_transitive_pairs:
            want = reference_every_generator_flag_report(design, gens)
            assert is_flag_transitive(design, gens) == want, label

    def test_padded_with_redundant_products(self, flag_transitive_pairs):
        # products of the generators, repeats and the identity, spread
        # through the list: the chain skips them, and the report holds
        rng = random.Random(3)
        for label, design, gens in flag_transitive_pairs:
            padded = list(gens.gens)
            for _ in range(6):
                f, g = rng.choice(padded), rng.choice(padded)
                padded.insert(rng.randrange(len(padded) + 1), _product(f, g))
            padded.insert(rng.randrange(len(padded) + 1), rng.choice(gens.gens))
            padded.insert(rng.randrange(len(padded) + 1), tuple(range(design.v)))
            padded = GeneratorSet(design.v, padded)
            want = reference_every_generator_flag_report(design, padded)
            assert is_flag_transitive(design, padded) == want, label

    def test_non_automorphism_at_each_position(self):
        # the first non-automorphism in file order is always admitted, so
        # it fails with the same witness wherever it stands
        design = _catalogue_design(construct_boolean_affine, (6,))
        gens = CATALOGUE_GROUPS["AGL(6,2)"].gens
        rng = random.Random(6)
        stranger = _random_permutation(rng, 64)
        witness = _reference_witness(design, stranger)
        assert witness is not None
        for i in range(len(gens) + 1):
            padded = GeneratorSet(64, gens[:i] + (stranger,) + gens[i:])
            want = _flag_outcome(reference_every_generator_flag_report, design, padded)
            assert want == (SetNotPreserved, witness)
            assert _flag_outcome(is_flag_transitive, design, padded) == want, i

    def test_non_automorphism_fails_before_the_chain_grows(self):
        # at 128 points, two random permutations generate A_128 or S_128,
        # a chain of seconds; the check must fail on the first before it
        design = _catalogue_design(construct_boolean_affine, (7,))
        gens = CATALOGUE_GROUPS["AGL(7,2)"].gens
        rng = random.Random(7)
        strangers = tuple(_random_permutation(rng, 128) for _ in range(2))
        witness = _reference_witness(design, strangers[0])
        for padded in (strangers + gens, gens[:1] + strangers + gens[1:]):
            started = time.perf_counter()
            got = _flag_outcome(is_flag_transitive, design, GeneratorSet(128, padded))
            assert got == (SetNotPreserved, witness)
            assert time.perf_counter() - started < 1.0

    def test_trace_counts_admitted_generators(self, monkeypatch):
        lines = []
        monkeypatch.setattr(permgrp, "emit", lambda stage, **counters: lines.append(counters))
        design = _catalogue_design(construct_boolean_affine, (6,))
        is_flag_transitive(design, CATALOGUE_GROUPS["AGL(6,2)"])
        assert (lines[0]["generators"], lines[0]["admitted"]) == (36, 16)


# -- stabilizer identities ---------------------------------------------------------
#
# `stabilizer_identities` as it was before it read |G| from the flag
# check's stabilizer chain: `group_order` ran a second Schreier-Sims.
# Kept verbatim but for its name.


def reference_stabilizer_identities(design: Design, gens: GeneratorSet) -> StabilizerReport:
    report = is_flag_transitive(design, gens)
    if not report.flag_transitive:
        raise NotFlagTransitive(
            f"flag orbit has size {report.flag_orbit_size} of {report.flag_count}"
        )
    params = params_of(design)
    v, b, k = params.v, params.b, params.k
    order = group_order(gens).order
    quotients = {}
    for name, denom in (
        ("g_x", v),
        ("g_xy", v * (v - 1)),
        ("g_b", b),
        ("g_xb", b * k),
    ):
        if order % denom:
            raise NotFlagTransitive(
                f"|G| = {order} is not divisible by {denom} ({name} not integral)"
            )
        quotients[name] = order // denom
    g_xy, g_b, g_xb = quotients["g_xy"], quotients["g_b"], quotients["g_xb"]
    return StabilizerReport(
        order=order,
        v=v,
        b=b,
        k=k,
        g_x=quotients["g_x"],
        g_xy=g_xy,
        g_b=g_b,
        g_xb=g_xb,
        block_identity=b * g_b == v * (v - 1) * g_xy,
        point_identity=(v - 2) * g_xb == (k - 1) * (k - 2) * g_xy,
    )


def _counting_chains(monkeypatch) -> list:
    """Replace `permgrp._schreier_sims` by a wrapper that records each call."""
    calls = []
    chains = permgrp._schreier_sims

    def counted(*args, **kwargs):
        calls.append(args)
        return chains(*args, **kwargs)

    monkeypatch.setattr(permgrp, "_schreier_sims", counted)
    return calls


class TestStabilizerIdentitiesDifferential:
    def test_flag_transitive_pairs(self, flag_transitive_pairs):
        for label, design, gens in flag_transitive_pairs:
            report = stabilizer_identities(design, gens)
            assert report == reference_stabilizer_identities(design, gens), label

    def test_one_chain_per_call(self, flag_transitive_pairs, monkeypatch):
        calls = _counting_chains(monkeypatch)
        for label, design, gens in flag_transitive_pairs:
            calls.clear()
            stabilizer_identities(design, gens)
            assert len(calls) == 1, label

    def test_same_refusal(self, catalogue, monkeypatch):
        design = catalogue[("spherical", 3, 2)]
        gens = projective_group_generators("PSL", 3, 2)
        with pytest.raises(NotFlagTransitive) as want:
            reference_stabilizer_identities(design, gens)
        calls = _counting_chains(monkeypatch)
        with pytest.raises(NotFlagTransitive) as got:
            stabilizer_identities(design, gens)
        assert str(got.value) == str(want.value)
        assert len(calls) == 1


# -- block orbits ----------------------------------------------------------------
#
# The base-block orbit as it was before the array breadth-first search:
# one sorted tuple and one set probe per image.  Kept verbatim but for its
# name.


def reference_block_orbit(gens, base: tuple[int, ...]) -> list:
    seen = {base}
    frontier = [base]
    while frontier:
        new = []
        for g in gens:
            for block in frontier:
                image = tuple(sorted(map(g.__getitem__, block)))
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return sorted(seen)


SPHERICAL_TO_128 = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (5, 3), (7, 2), (8, 2), (9, 2), (11, 2)]
NETTO_TO_128 = [7, 19, 31, 43, 67, 79, 103, 127]


def _orbit_arguments(monkeypatch, construct, *args) -> tuple:
    """The generators and base block a constructor hands to
    `_block_orbit`, and the design it builds from the orbit."""
    calls = []
    real = catalog._block_orbit

    def record(gens, base):
        calls.append((gens, base))
        return real(gens, base)

    monkeypatch.setattr(catalog, "_block_orbit", record)
    design = construct(*args)
    (gens, base), = calls
    return gens, base, design


def _assert_same_orbit(gens, base) -> np.ndarray:
    got = catalog._block_orbit(gens, base)
    want = reference_block_orbit(gens, base)
    assert got.tolist() == [list(block) for block in want]
    assert got.dtype == np.int32
    assert got.shape == (len(want), len(base))
    return got


class TestBlockOrbitDifferential:
    def test_every_family_size_to_128_points_is_covered(self):
        assert len(SPHERICAL_TO_128) == 11
        assert all(q**e + 1 <= 128 for q, e in SPHERICAL_TO_128)
        assert [q for q in range(7, 128, 12) if prime_power(q)] == NETTO_TO_128

    @pytest.mark.parametrize("q,e", SPHERICAL_TO_128, ids=lambda x: str(x))
    def test_spherical(self, q, e, monkeypatch):
        gens, base, design = _orbit_arguments(monkeypatch, catalog.construct_spherical, q, e)
        assert _assert_same_orbit(gens, base).tolist() == design.block_array.tolist()

    @pytest.mark.parametrize("q", NETTO_TO_128)
    def test_netto(self, q, monkeypatch):
        gens, base, design = _orbit_arguments(monkeypatch, catalog.construct_netto_extension, q)
        assert _assert_same_orbit(gens, base).tolist() == design.block_array.tolist()

    def test_no_generators(self):
        assert _assert_same_orbit((), (0, 1, 2, 3)).tolist() == [[0, 1, 2, 3]]

    def test_not_a_partial_steiner_system(self):
        # S6 on a 4-subset: all 15 4-subsets of 6 points, which share
        # 3-subsets; a Steiner 3-design on 6 points has 5 blocks of 4
        s6 = [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]
        assert len(reference_block_orbit(s6, (0, 1, 2, 3))) == 15
        with pytest.raises(catalog.CatalogError):
            catalog._block_orbit(s6, (0, 1, 2, 3))

    @pytest.mark.parametrize(
        "gens,base",
        [
            # an image shares its first three points with a stored block
            ([(0, 1, 2, 4, 3, 5, 6, 7)], (0, 1, 2, 3)),
            # two new images of one level share their first three points
            ([(3, 4, 5, 0, 1, 2, 6, 7), (3, 4, 5, 0, 1, 2, 7, 6)], (3, 4, 5, 6)),
        ],
        ids=["stored", "same-level"],
    )
    def test_blocks_sharing_a_key(self, gens, base):
        # fewer blocks than a Steiner 3-design on 8 points has (14), so
        # only the key comparison can reject the orbit
        assert len(reference_block_orbit(gens, base)) < 14
        with pytest.raises(catalog.CatalogError, match="sharing three points"):
            catalog._block_orbit(gens, base)


# -- Schreier-Sims on translation tables ---------------------------------------------
#
# The chain holds each permutation as a 256-byte translation table.
# `_product` above, the generator-expression composition on image
# tuples, is the reference for "f, then g" as f.translate(g), and
# `_inverse` below for bytes.maketrans(f, identity).


def catalogue_groups() -> dict[str, GeneratorSet]:
    """The generators of every catalogue group on at most 128 points,
    but the Witt design's, which takes an automorphism search."""
    groups = {}
    for v in range(5, 129):
        for k in range(4, v):
            for row in catalog.classify(v, k):
                for name, recipe in row.groups:
                    family, _, kind, *rest = recipe.split()
                    if family == "affine":
                        groups[name] = affine_group_generators(kind, int(rest[1]))
                    elif family == "projective":
                        groups[name] = projective_group_generators(kind, int(rest[1]), int(rest[3]))
    return groups


CATALOGUE_GROUPS = catalogue_groups()


def _tables_as_tuples(tables, degree: int) -> list[tuple]:
    """The image tuples of translation tables, each checked to fix every
    point from `degree` on."""
    for table in tables:
        assert table[degree:] == permgrp._IDENTITY[degree:]
    return [tuple(table[:degree]) for table in tables]


def _chain_as_tuples(levels, degree: int) -> list:
    """Each level's base point, strong generators and transversal, in
    insertion order, as image tuples."""
    return [
        (
            lvl.beta,
            _tables_as_tuples(lvl.gens, degree),
            [(p, *_tables_as_tuples(entry, degree)) for p, entry in lvl.transversal.items()],
        )
        for lvl in levels
    ]


def _summary_of(levels) -> tuple:
    """`group_order`'s order, base and stabilizer orders, read off levels."""
    orders = [1]
    for lvl in reversed(levels):
        orders.append(orders[-1] * len(lvl.transversal))
    return orders[-1], tuple(lvl.beta for lvl in levels), tuple(reversed(orders))


class TestComposeDifferential:
    def test_every_family_has_groups(self):
        assert len(CATALOGUE_GROUPS) == 36
        assert "AGL(7,2)" in CATALOGUE_GROUPS and "PSigmaL(2,127)" in CATALOGUE_GROUPS

    @pytest.mark.parametrize("name", sorted(CATALOGUE_GROUPS))
    def test_same_chain(self, name):
        # the order, base and stabilizer orders `order` prints
        gens = CATALOGUE_GROUPS[name]
        summary = group_order(gens)
        want, _, _ = reference_schreier_sims(gens)
        got = (summary.order, summary.base, summary.stabilizer_orders)
        assert got == _summary_of(want)

    def test_witt_automorphism_group(self, witt_aut):
        _assert_same_schreier_sims(witt_aut)
        assert group_order(witt_aut).order == 887040

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_small_degrees(self, degree):
        for f in permutations(range(degree)):
            table = permgrp._table(f)
            inverse = bytes.maketrans(table, permgrp._IDENTITY)
            assert _tables_as_tuples([inverse], degree) == [_inverse(f)]
            for g in permutations(range(degree)):
                composed = table.translate(permgrp._table(g))
                assert _tables_as_tuples([composed], degree) == [_product(f, g)]

    def test_random_degree_128_pairs(self):
        rng = random.Random(128)
        for _ in range(200):
            f, g = (_random_permutation(rng, 128) for _ in range(2))
            table = permgrp._table(f)
            composed = table.translate(permgrp._table(g))
            assert _tables_as_tuples([composed], 128) == [_product(f, g)]
            inverse = bytes.maketrans(table, permgrp._IDENTITY)
            assert _tables_as_tuples([inverse], 128) == [_inverse(f)]

    def test_table_rows(self):
        rng = random.Random(7)
        for degree in (0, 1, 5, 128):
            perms = [_random_permutation(rng, degree) for _ in range(3)]
            rows = permgrp._table_rows([permgrp._table(g) for g in perms], degree)
            assert rows.dtype == np.int32
            assert rows.tolist() == _image_table(perms, degree).tolist()
        assert permgrp._table_rows([], 9).shape == (0, 9)


# -- Schreier-Sims bookkeeping -------------------------------------------------------
#
# `_schreier_sims` as it was when each level kept a set of the (orbit
# point, generator) pairs it had handled, and each permutation was an
# image tuple.  Kept verbatim but for its names, with `_product` for
# `_compose`.


class _ReferenceLevel:
    __slots__ = ("beta", "gens", "transversal", "done")

    def __init__(self, beta: int, ident: tuple):
        self.beta = beta
        self.gens: list[tuple] = []
        self.transversal: dict[int, tuple[tuple, tuple]] = {beta: (ident, ident)}
        self.done: set[tuple[int, int]] = set()


def _inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def reference_schreier_sims(gens: GeneratorSet, base_prefix=()) -> tuple[list, int, int]:
    degree = gens.degree
    ident = tuple(range(degree))
    levels = [_ReferenceLevel(b, ident) for b in base_prefix]
    sifts = schreier_formed = 0

    def sift(g: tuple, start: int) -> tuple[tuple, int]:
        nonlocal sifts
        sifts += 1
        for i in range(start, len(levels)):
            lvl = levels[i]
            d = g[lvl.beta]
            if d == lvl.beta:
                continue
            entry = lvl.transversal.get(d)
            if entry is None:
                return g, i
            g = _product(g, entry[1])
        return g, len(levels)

    def place(residue: tuple, top: int, j: int) -> None:
        if j == len(levels):
            beta = min(x for x in range(degree) if residue[x] != x)
            levels.append(_ReferenceLevel(beta, ident))
        for m in range(top, j + 1):
            levels[m].gens.append(residue)

    def process(i: int) -> int | None:
        nonlocal schreier_formed
        lvl = levels[i]
        frontier = list(lvl.transversal)
        while frontier:
            new_points = []
            for p in frontier:
                up = lvl.transversal[p][0]
                for gi in range(len(lvl.gens)):
                    if (p, gi) in lvl.done:
                        continue
                    lvl.done.add((p, gi))
                    s = lvl.gens[gi]
                    q = s[p]
                    entry = lvl.transversal.get(q)
                    if entry is None:
                        u = _product(up, s)
                        lvl.transversal[q] = (u, _inverse(u))
                        new_points.append(q)
                        continue
                    schreier = _product(_product(up, s), entry[1])
                    schreier_formed += 1
                    if schreier == ident:
                        continue
                    residue, j = sift(schreier, i + 1)
                    if residue == ident:
                        continue
                    place(residue, i + 1, j)
                    return j
            frontier = new_points
        return None

    for g in gens.gens:
        residue, j = sift(g, 0)
        if residue == ident:
            continue
        place(residue, 0, j)
        i = j
        while i >= 0:
            deeper = process(i)
            i = deeper if deeper is not None else i - 1
    return levels, sifts, schreier_formed


def _assert_same_schreier_sims(gens: GeneratorSet, base_prefix=()) -> None:
    got, sifts, formed = permgrp._schreier_sims(gens, base_prefix)
    want, want_sifts, want_formed = reference_schreier_sims(gens, base_prefix)
    assert (sifts, formed) == (want_sifts, want_formed)
    assert _chain_as_tuples(got, gens.degree) == [
        (lvl.beta, lvl.gens, [(p, *entry) for p, entry in lvl.transversal.items()])
        for lvl in want
    ]


class TestSchreierSimsDifferential:
    @pytest.mark.parametrize("name", sorted(CATALOGUE_GROUPS))
    def test_catalogue_groups(self, name):
        _assert_same_schreier_sims(CATALOGUE_GROUPS[name])

    def test_flag_check_chains(self, flag_transitive_pairs):
        for label, design, gens in flag_transitive_pairs:
            _assert_same_schreier_sims(gens, (int(design.block_array[0, 0]),))

    @pytest.mark.parametrize("degree", [16, 24, 32, 48, 64])
    def test_random_generators(self, degree):
        rng = random.Random(degree)
        for count in (1, 2, 3):
            perms = [_random_permutation(rng, degree) for _ in range(count)]
            _assert_same_schreier_sims(GeneratorSet(degree, perms))

    def test_two_random_permutations_of_degree_128(self):
        # they generate A_128 or S_128, as their parities say: 126 levels
        # and about 157 000 Schreier generators, 15-20 s in process when
        # the chain composed image tuples
        rng = random.Random(2)
        perms = [_random_permutation(rng, 128) for _ in range(2)]
        odd = any(_parity(g) for g in perms)
        started = time.perf_counter()
        summary = group_order(GeneratorSet(128, perms))
        elapsed = time.perf_counter() - started
        assert summary.order == math.factorial(128) // (1 if odd else 2)
        assert elapsed < 10.0


def _parity(g: tuple) -> int:
    """1 for an odd permutation, 0 for an even one: n less its cycle count."""
    seen, cycles = set(), 0
    for x in range(len(g)):
        if x not in seen:
            cycles += 1
            while x not in seen:
                seen.add(x)
                x = g[x]
    return (len(g) - cycles) % 2


GROUPGENS_DIGESTS = {
    ("affine", "AGL_d_2", "--d", "3"): "90adf29f8cabe5ee326885b02185d2a6d6b15f6986abc79c08ff3a3fa381b805",
    ("affine", "AGL_1", "--d", "3"): "f07b93e7fa6b371ed159e0eff8653bb63b7aecbe3d11b11ba9a2cc56c934cbd2",
    ("affine", "AGammaL_1", "--d", "3"): "d2705db6c2c8420acd7bdd1a063e304d0b3adf1d2b8b45e4fa8255b5d92aeabb",
    ("affine", "AGammaL_1", "--d", "5"): "9d6a822b681efab4bd6f702a1b0a5895a39383a88019bc96b73294ecba4c2ae5",
    ("affine", "T_A7", "--d", "4"): "8855c4e83c594e350ee2baaf2a3b71f467ce283ff6de630474e3aea40614f0ec",
    ("projective", "PSL", "--q", "3", "--e", "2"): "ccc0eaeb410d76d482ef3d26588c2d1972585a10aa0005f816064d2e297e60ba",
    ("projective", "PGL", "--q", "3", "--e", "2"): "cacd6be64df19c5e0a49def5f44318fcc5ab9c67a456fb8ab202fb1fbcde5826",
    ("projective", "PSigmaL", "--q", "3", "--e", "2"): "f77936d3071b2899785739e4338ab44c7c5d818f3b2caa0aee6318ffd89f608b",
    ("projective", "PGammaL", "--q", "3", "--e", "2"): "ff2ac94e1e8885e1e79589a618a8576af950defab7e83c8c60440d91aaf349ad",
    ("projective", "PSL", "--q", "19", "--e", "1"): "9caa90ad851d0f3ce02f101c16815c0b937d8fdc01901b6a842f144ec75a3c1c",
}

AUTGROUP_DIGESTS = {
    ("witt",): "cb251e1fb99c81a6c916490bd53ce15a4c4617c839540cc344f8b1ec8f16c8e4",
    ("spherical", "--q", "3", "--e", "2"): "b854064957d0ac26f2bd0e6636ff832446a83850d35e8b18133f733cda3151f5",
}

CONSTRUCT_DIGESTS = {
    ("witt",): "cd647f60ea594981444d3c05d753a3417ac82a136a997c9e7802bf038d1938d4",
    ("netto", "--q", "127"): "e9af6992a0c312d9c1b8f2f1a6fdce293e61375fec21f2e289561ddb06254246",
    ("netto", "--q", "43"): "6c3582caf217e52d7ae72b033a2f773151826901375adba7f6174d87dd055f57",
    ("spherical", "--q", "5", "--e", "3"): "5856913ec6d8d6331c7f17dde624e079ff0c353d72e01681262ac31f68592035",
    ("spherical", "--q", "3", "--e", "3"): "aab60d6bb6ee9b3c6963e442d31770a2eaf246a5c8f234740f14b70bd226b827",
    ("affine", "--d", "3"): "ec17423cd9b540256846dd4f7248affdc826fb02263ffb7d070439ad47e8cf0e",
    ("affine", "--d", "7"): "7aff7aa5b35fb1b23cf98c21454571c4b35e8b8baaf1547b736cf22407b3e47e",
}


def _case_id(case: tuple) -> str:
    return "-".join(arg.lstrip("-") for arg in case)


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize("case", sorted(GROUPGENS_DIGESTS), ids=_case_id)
    def test_groupgens(self, case, tmp_path, capsys):
        out = tmp_path / "g.gens"
        family, kind, *extra = case
        argv = ["groupgens", "--family", family, "--kind", kind, *extra]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert _digest(out) == GROUPGENS_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(AUTGROUP_DIGESTS), ids=_case_id)
    def test_autgroup(self, case, tmp_path, capsys):
        design, out = tmp_path / "d.json", tmp_path / "aut.gens"
        family, *extra = case
        assert main(["construct", "--family", family, *extra, "--out", str(design)]) == 0
        assert main(["autgroup", str(design), "--out", str(out)]) == 0
        capsys.readouterr()
        assert _digest(out) == AUTGROUP_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(CONSTRUCT_DIGESTS), ids=_case_id)
    def test_construct(self, case, tmp_path, capsys):
        out = tmp_path / "d.json"
        family, *extra = case
        assert main(["construct", "--family", family, *extra, "--out", str(out)]) == 0
        capsys.readouterr()
        assert _digest(out) == CONSTRUCT_DIGESTS[case]

    def test_every_kind_is_covered(self):
        kinds = {kind for _, kind, *_ in GROUPGENS_DIGESTS}
        assert kinds == set(AFFINE_KINDS + PROJECTIVE_KINDS)


# -- the automorphism search ---------------------------------------------------
#
# The search as it was before it kept the closure of its map under forced
# images: every subtree is searched point by point, and each block's image
# is found in a dict keyed by the bitmask of three image points.  Kept
# verbatim but for its name.


class ReferenceAutSearch:
    """Backtracking over point images with block-consistency propagation.

    Once three assigned points of a block determine its image block, every
    further point of that block is confined to the image; the next point
    to branch on is always the least one lying in the most
    already-determined blocks, so refutations stay shallow.  `score[x]`
    holds that count of determined blocks through x, kept live by
    `_assign` and `_unassign`; an assigned point's score is lowered by
    `taken`, so the first maximum of `score` is the branch point.  Each
    block keeps the bitmask of its assigned points' images, which is the
    key of its image block in `triple` once three are assigned; `used`
    is the bitmask of all assigned images.

    One searcher serves the whole stabilizer-chain walk: `generators`
    assigns each finished base point to itself once, and every trial
    assigns and undoes only base -> y on top of that fixed prefix, its
    search unwinding all of its own assignments whether it succeeds or
    not.  `levels`, `trials`, `successes` and `nodes` count the work.
    """

    def __init__(self, design: Design):
        # a block's image is fixed by three of its points: with fewer, no
        # assignment is ever checked against the blocks
        if design.k < 3:
            raise DesignError(
                f"automorphism search needs blocks of at least 3 points, got {design.k}"
            )
        self.v = design.v
        self.blocks = design.blocks
        self.nblocks = len(design.blocks)
        self.through: list[list[int]] = [[] for _ in range(self.v)]
        for bi, block in enumerate(design.blocks):
            for x in block:
                self.through[x].append(bi)
        # block index of each 3-subset, keyed by its bitmask of points
        self.triple: dict[int, int] = {}
        for bi, block in enumerate(design.blocks):
            for a, b, c in combinations(block, 3):
                self.triple[(1 << a) | (1 << b) | (1 << c)] = bi
        # the search maps each 3-subset to its one block
        covered = self.nblocks * math.comb(design.k, 3)
        if len(self.triple) != covered:
            raise DesignError(
                f"{self.nblocks} blocks of size {design.k} cover {len(self.triple)} "
                f"3-subsets, not {covered}: some 3-subset lies in two blocks"
            )
        self.points = [sum(1 << x for x in block) for block in design.blocks]
        self.img = [-1] * self.v
        self.blk_img = [-1] * self.nblocks
        self.blk_pre = [-1] * self.nblocks
        self.mask = [0] * self.nblocks
        self.used = 0
        self.score = [0] * self.v
        self.taken = self.nblocks + 1
        self.levels = self.trials = self.successes = self.nodes = 0

    def generators(self) -> list[tuple[int, ...]]:
        """One automorphism per new image of each base point 0, 1, 2, ...

        A per-level bitmap marks the images already reachable by the
        generators found so far that fix the prefix, or already refuted.
        """
        v = self.v
        gens: list[tuple[int, ...]] = []
        for base in range(v):
            self.levels += 1
            fixing = [g for g in gens if all(g[p] == p for p in range(base))]
            table = _image_table(fixing, v)
            seen = np.zeros(v, dtype=bool)
            seen[orbit(table, [base])] = True
            # an automorphism fixing 0..base-1 pointwise cannot send base below itself
            for y in range(base + 1, v):
                if seen[y]:
                    continue
                found = self._trial(base, y)
                if found is None:
                    # no automorphism sends base into the orbit of y either
                    seen[orbit(table, [y])] = True
                    continue
                gens.append(found)
                fixing.append(found)
                table = _image_table(fixing, v)
                seen[orbit(table, np.flatnonzero(seen))] = True
            self._assign(base, base)
        return gens

    def _trial(self, base: int, y: int) -> tuple[int, ...] | None:
        """First automorphism extending the prefix and base -> y, or None."""
        self.trials += 1
        undo = self._assign(base, y)
        if undo is None:
            return None
        found = self._dfs()
        self._unassign(base, y, self.through[base], undo)
        if found is not None:
            self.successes += 1
        return found

    def _assign(self, x: int, y: int) -> list[int] | None:
        """Set x -> y and the block images it determines; the list of
        those blocks, or None (and no change) if x -> y contradicts the
        block structure."""
        img = self.img
        bit = 1 << y
        if img[x] != -1 or self.used & bit:
            return None
        img[x] = y
        self.used |= bit
        score = self.score
        score[x] -= self.taken
        mask, blk_img, blk_pre = self.mask, self.blk_img, self.blk_pre
        points, used = self.points, self.used
        through = self.through[x]
        determined = []
        for bi in through:
            images = mask[bi] | bit
            mask[bi] = images
            ti = blk_img[bi]
            if ti != -1:
                if not points[ti] & bit:
                    break
                continue
            if images.bit_count() != 3:
                continue
            # the image block, unclaimed, and no point outside bi maps into it
            ti = self.triple.get(images)
            if ti is None or blk_pre[ti] != -1 or used & points[ti] != images:
                break
            blk_img[bi] = ti
            blk_pre[ti] = bi
            for w in self.blocks[bi]:
                score[w] += 1
            determined.append(bi)
        else:
            return determined
        self._unassign(x, y, through[: through.index(bi) + 1], determined)
        return None

    def _unassign(self, x: int, y: int, touched: list[int], determined: list[int]) -> None:
        """Undo x -> y: `touched` are the blocks through x whose image
        masks it entered, `determined` those whose image it fixed."""
        mask = self.mask
        bit = 1 << y
        for bi in touched:
            mask[bi] ^= bit
        blk_img, score = self.blk_img, self.score
        for bi in determined:
            self.blk_pre[blk_img[bi]] = -1
            blk_img[bi] = -1
            for w in self.blocks[bi]:
                score[w] -= 1
        self.img[x] = -1
        self.used ^= bit
        score[x] += self.taken

    def _next_point(self) -> tuple[int, int]:
        best_score = max(self.score)
        if best_score < 0:
            return -1, best_score
        return self.score.index(best_score), best_score

    def _dfs(self) -> tuple[int, ...] | None:
        self.nodes += 1
        x, score = self._next_point()
        if x == -1:
            return tuple(self.img)
        if score > 0:
            for bi in self.through[x]:
                ti = self.blk_img[bi]
                if ti != -1:
                    images = self.blocks[ti]
                    break
        else:
            images = range(self.v)
        candidates = [w for w in images if not self.used >> w & 1]
        for y in candidates:
            undo = self._assign(x, y)
            if undo is None:
                continue
            found = self._dfs()
            self._unassign(x, y, self.through[x], undo)
            if found is not None:
                return found
        return None


AUT_CASES = [
    ("affine", 3),
    ("affine", 4),
    ("affine", 5),
    ("netto", 7),
    ("netto", 19),
    ("netto", 31),
    ("netto", 43),
    ("spherical", 3, 2),
    ("spherical", 3, 3),
    ("spherical", 4, 2),
    ("spherical", 5, 2),
    ("witt",),
]
# the catalogue designs of at most 32 points
RELABEL_CASES = [key for key in AUT_CASES if key != ("netto", 43)]
SAME_COUNTERS = ("levels", "trials", "successes")
# the search nodes and the subtrees settled by a complete closure: only
# blocks of 4 points force images, so the spherical designs with q > 3 and
# the Witt design search as the reference does
SEARCH_WORK = {
    ("affine", 3): (31, 12),
    ("affine", 4): (108, 20),
    ("affine", 5): (341, 30),
    ("netto", 7): (31, 12),
    ("netto", 19): (34, 6),
    ("netto", 31): (26, 5),
    ("netto", 43): (26, 5),
    ("spherical", 3, 2): (20, 7),
    ("spherical", 3, 3): (25, 9),
    ("spherical", 4, 2): (212, 0),
    ("spherical", 5, 2): (1601, 0),
    ("witt",): (398, 0),
}

# |Aut| of a catalogue design less its first block
PARTIAL_ORDERS = {
    ("affine", 3): 96,
    ("affine", 4): 2304,
    ("netto", 19): 12,
    ("spherical", 3, 3): 72,
}


def _key_id(key: tuple) -> str:
    return "-".join(map(str, key))


def _counted_reference(design: Design) -> tuple[tuple, dict]:
    """The reference generators, with its levels, trials, successes and
    DFS nodes."""
    searcher = ReferenceAutSearch(design)
    gens = tuple(searcher.generators())
    return gens, {name: getattr(searcher, name) for name in SAME_COUNTERS + ("nodes",)}


# the searcher's fields fixed by the design, never written by the search,
# and its cache of fourth-point tables
SEARCH_TABLES = (
    "design", "ranks", "v", "cubes", "pairs", "blocks", "nblocks", "through", "points",
    "taken", "fourths",
)
SEARCH_COUNTERS = SAME_COUNTERS + ("nodes", "settled")


def _search_state(searcher: permgrp._AutSearch) -> dict:
    """A snapshot of every field but the counters and the design's tables."""
    return {
        name: value[:] if isinstance(value, list) else value
        for name, value in vars(searcher).items()
        if name not in SEARCH_COUNTERS + SEARCH_TABLES
    }


def _prefix_states(design: Design) -> list[dict]:
    """The state of a fresh searcher with 0..n-1 fixed, for n = 0..v."""
    fresh = permgrp._AutSearch(design)
    states = [_search_state(fresh)]
    for p in range(design.v):
        fresh._fix(p)
        assert fresh.img[p] == fresh.cimg[p] == p or fresh.fourths is None
        states.append(_search_state(fresh))
    return states


def _relabelled(design: Design, perm: list[int]) -> Design:
    """The design with each point x renamed perm[x]."""
    return Design(design.v, design.t, [[perm[x] for x in block] for block in design.blocks])


def _closed_form_order(key: tuple) -> int:
    """|Aut| of a catalogue design: |AGL(d,2)| (1344 for d = 3, where the
    design is the Netto q = 7 one), |PGammaL(2,q^e)|, |PSigmaL(2,q)| for
    Netto q > 7, and 887040 for the Witt design."""
    family, *params = key
    if family == "affine" or key == ("netto", 7):
        d = params[0] if family == "affine" else 3
        order = 2**d
        for i in range(d):
            order *= 2**d - 2**i
        return order
    if family == "spherical":
        q, e = params
        f = prime_power(q)[1]
        n = q**e
        return (n + 1) * n * (n - 1) * f * e
    if family == "netto":
        (q,) = params
        return (q + 1) * q * (q - 1) // 2 * prime_power(q)[1]
    return 887040


class TestAutomorphismSearchDifferential:
    def test_cases_cover_the_small_catalogue(self, catalogue):
        small = {key for key, design in catalogue.items() if design.v <= 32}
        assert small <= set(AUT_CASES) <= set(catalogue) == set(SEARCH_WORK)

    @pytest.mark.parametrize("key", AUT_CASES, ids=_key_id)
    def test_same_generators_and_counts(self, key, catalogue):
        design = catalogue[key]
        want, counts = _counted_reference(design)
        searcher = permgrp._AutSearch(design)
        assert tuple(searcher.generators()) == want
        assert automorphism_group(design).gens == want
        assert {name: getattr(searcher, name) for name in SAME_COUNTERS} == {
            name: counts[name] for name in SAME_COUNTERS
        }
        assert (searcher.nodes, searcher.settled) == SEARCH_WORK[key]
        assert searcher.nodes <= counts["nodes"]

    @pytest.mark.parametrize("key", AUT_CASES, ids=_key_id)
    def test_every_trial_leaves_the_prefix_state(self, key, catalogue):
        design = catalogue[key]
        states = _prefix_states(design)

        class Checked(permgrp._AutSearch):
            def _trial(self, base, y):
                assert _search_state(self) == states[base]
                found = super()._trial(base, y)
                assert _search_state(self) == states[base]
                return found

        searcher = Checked(design)
        searcher.generators()
        assert _search_state(searcher) == states[design.v]

    @pytest.mark.parametrize("key", PARTIAL_ORDERS, ids=_key_id)
    def test_partial_systems(self, key, catalogue):
        # a catalogue design less its first block: the closure meets blocks
        # through three points on one side only, and Aut is the stabilizer
        # of the missing block, of index b in Aut of the whole design
        design, order = catalogue[key], PARTIAL_ORDERS[key]
        partial = Design(design.v, design.t, design.blocks[1:])
        assert order * design.b == _closed_form_order(key)
        want, _ = _counted_reference(partial)
        gens = automorphism_group(partial)
        assert gens.gens == want
        assert group_order(gens).order == order

    @settings(max_examples=24, deadline=None)
    @given(data=st.data())
    def test_relabelled_designs(self, catalogue, data):
        key = data.draw(st.sampled_from(RELABEL_CASES), label="design")
        design = catalogue[key]
        assert design.v <= 32
        perm = data.draw(st.permutations(range(design.v)), label="relabelling")
        relabelled = _relabelled(design, perm)
        want, _ = _counted_reference(relabelled)
        gens = automorphism_group(relabelled)
        assert gens.gens == want
        assert group_order(gens).order == _closed_form_order(key)


# -- the parameter sieve -------------------------------------------------------


@dataclass(frozen=True)
class ReferenceSieveReport:
    v: int
    k: int
    checks: tuple[tuple[str, bool], ...]
    admissible: bool
    cameron_equality: bool
    equality_listed: bool

    def __post_init__(self):
        if self.admissible != all(ok for _, ok in self.checks):
            raise ValueError("admissible flag inconsistent with checks")


def reference_screen(v: int, k: int) -> ReferenceSieveReport:
    """The sieve's screen written out check by check, one frozen report each."""
    bound = blocksize_bound(v)
    checks = (
        ("b_integral", v * (v - 1) * (v - 2) % (k * (k - 1) * (k - 2)) == 0),
        ("r_integral", (v - 1) * (v - 2) % ((k - 1) * (k - 2)) == 0),
        ("lambda2_integral", (v - 2) % (k - 2) == 0),
        ("blocksize_bound", k <= bound),
        ("cameron_a", v >= 4 * (k - 2)),
        ("cameron_b", v - 2 >= (k - 1) * (k - 2)),
    )
    equality = v - 2 == (k - 1) * (k - 2)
    return ReferenceSieveReport(
        v=v,
        k=k,
        checks=checks,
        admissible=all(ok for _, ok in checks),
        cameron_equality=equality,
        equality_listed=equality and (3, k, v) in CAMERON_EQUALITY_CASES,
    )


def reference_sweep(v_min: int, v_max: int):
    for v in range(v_min, v_max + 1):
        for k in range(4, blocksize_bound(v) + 1):
            yield reference_screen(v, k)


REPORT_FIELDS = tuple(f.name for f in fields(ReferenceSieveReport))
report_fields = attrgetter(*REPORT_FIELDS)


class TestSieveDifferential:
    def test_same_fields(self):
        assert tuple(f.name for f in fields(SieveReport)) == REPORT_FIELDS

    @pytest.mark.parametrize("v_min,v_max", [(4, 2000), (999_800, 10**6)])
    def test_admissible_parameters(self, v_min, v_max):
        pairs = zip_longest(
            reference_sweep(v_min, v_max), admissible_parameters(v_min, v_max)
        )
        for want, got in pairs:
            assert report_fields(got) == report_fields(want)

    @pytest.mark.parametrize(
        "v,k", [(16, 9), (16, 4), (22, 6), (22, 40), (4, 4), (10**6, 1002), (10**6, 5000)]
    )
    def test_screen_parameters(self, v, k):
        assert report_fields(screen_parameters(v, k)) == report_fields(
            reference_screen(v, k)
        )

    def test_screen_beyond_the_bound(self):
        report = screen_parameters(16, 9)
        assert dict(report.checks)["blocksize_bound"] is False
        assert not report.admissible


def full_sweep_matches_reference(v_min: int, v_max: int) -> None:
    """The full sweep against the check-by-check reference, field for
    field, each report holding one of the shared `_OUTCOMES` tuples (the
    tuples that `as_json` reads its preformatted tail by)."""
    shared = {id(checks) for checks, _, _ in _OUTCOMES}
    pairs = zip_longest(reference_sweep(v_min, v_max), admissible_parameters(v_min, v_max))
    for want, got in pairs:
        assert report_fields(got) == report_fields(want)
        assert id(got.checks) in shared


class TestFullSweepChunks:
    """The full sweep screens whole values of v in int64 arrays of at most
    `_PAIR_CHUNK` pairs (or one v with more)."""

    def test_cap_fits_int64(self):
        v = 10**sieve.SIEVE_V_EXPONENT
        assert v * (v - 1) * (v - 2) <= np.iinfo(np.int64).max
        with pytest.raises(SieveError, match=f"10\\^{sieve.SIEVE_V_EXPONENT}"):
            admissible_parameters(4, v + 1)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 100])
    def test_small_chunks(self, chunk, monkeypatch):
        monkeypatch.setattr(sieve, "_PAIR_CHUNK", chunk)
        for v_min, v_max in [(4, 300), (999_990, 10**6)]:
            full_sweep_matches_reference(v_min, v_max)

    @pytest.mark.parametrize("v_min,v_max", [(4, 300), (4000, 4100), (999_990, 10**6)])
    def test_windows_across_chunk_boundaries(self, v_min, v_max):
        assert len(list(sieve._pair_chunks(v_min, v_max))) > 1
        full_sweep_matches_reference(v_min, v_max)

    @pytest.mark.parametrize("v_min,v_max", [(4, 4), (4, 5), (5, 5), (4, 6)])
    def test_windows_without_a_pair(self, v_min, v_max):
        assert list(admissible_parameters(v_min, v_max)) == []
        assert list(sieve._pair_chunks(v_min, v_max)) == []

    def test_every_chunk_holds_whole_values_of_v(self):
        for rows in sieve._pair_chunks(4, 3000):
            counts = [row[1] - 3 for row in rows]
            assert sum(counts) <= sieve._PAIR_CHUNK or len(rows) == 1
            assert [row[-1] for row in rows] == [sum(counts[:i]) for i in range(len(rows))]


def admissible_reports(v_min: int, v_max: int) -> tuple[list, list]:
    """The full screen's admissible reports and the divisor path's, as fields."""
    full = [report_fields(r) for r in admissible_parameters(v_min, v_max) if r.admissible]
    fast = admissible_parameters(v_min, v_max, admissible_only=True)
    return full, [report_fields(r) for r in fast]


class TestDivisorSieveDifferential:
    """`admissible_only=True` against the full per-k screen, kept as the
    slow reference: whole reports, in the same order."""

    @pytest.mark.parametrize("v_min,v_max", [(4, 20_000), (999_000, 10**6)])
    def test_windows(self, v_min, v_max):
        full, fast = admissible_reports(v_min, v_max)
        assert fast == full

    @pytest.mark.parametrize(
        "v_min,v_max",
        # each chunk starts at v_min, so these cross one or two boundaries
        [(4, 4100), (5000, 13_500), (250_000, 254_200)],
    )
    def test_windows_across_chunk_boundaries(self, v_min, v_max):
        assert v_max - v_min >= sieve.SIEVE_CHUNK
        full, fast = admissible_reports(v_min, v_max)
        assert fast == full

    @pytest.mark.parametrize("chunk", [1, 2, 7, 100])
    def test_small_chunks(self, chunk, monkeypatch):
        monkeypatch.setattr(sieve, "SIEVE_CHUNK", chunk)
        for v_min, v_max in [(4, 500), (999_900, 10**6)]:
            full, fast = admissible_reports(v_min, v_max)
            assert fast == full

    @pytest.mark.parametrize(
        "v", [4, 5, 6, 8, 16, 22, 112, 4098, 65_538, 720_722, 999_983, 10**6]
    )
    def test_single_value(self, v):
        full, fast = admissible_reports(v, v)
        assert fast == full

    @pytest.mark.parametrize("v,k", [(8, 4), (22, 6), (112, 12)])
    def test_listed_cameron_equality_cases(self, v, k):
        full, fast = admissible_reports(v, v)
        assert fast == full
        report = next(r for r in admissible_parameters(v, v, admissible_only=True) if r.k == k)
        assert report.admissible and report.cameron_equality and report.equality_listed

    def test_range_validation(self):
        for window in [(3, 10), (10, 4), (4, 10**6 + 1)]:
            with pytest.raises(SieveError):
                admissible_parameters(*window, admissible_only=True)

    @settings(derandomize=True, database=None, deadline=None, max_examples=12)
    @given(st.integers(0, 5000), st.integers(4, 10**6))
    def test_random_windows(self, width, v_min):
        v_min = min(v_min, 10**6 - width)
        full, fast = admissible_reports(v_min, v_min + width)
        assert fast == full


class TestOutcomeTable:
    def test_every_pattern_once(self):
        assert len({checks for checks, _, _ in _OUTCOMES}) == len(_OUTCOMES) == 64

    def test_admissible_is_all_checks(self):
        for checks, admissible, _ in _OUTCOMES:
            assert admissible == all(ok for _, ok in checks)

    def test_checks_json(self):
        for checks, _, text in _OUTCOMES:
            assert text == json.dumps(dict(checks), separators=(",", ":"))

    @pytest.mark.parametrize("equality,listed", [(False, False), (True, False), (True, True)])
    def test_as_json_is_compact_as_dict(self, equality, listed):
        for checks, admissible, _ in _OUTCOMES:
            report = SieveReport(22, 6, checks, admissible, equality, listed)
            assert report.as_json() == json.dumps(report.as_dict(), separators=(",", ":"))

    @pytest.mark.parametrize("equality,listed", [(False, False), (True, False), (True, True)])
    def test_as_json_of_an_equal_distinct_tuple(self, equality, listed):
        for shared, admissible, _ in _OUTCOMES:
            checks = tuple((name, ok) for name, ok in shared)
            assert checks == shared and checks is not shared
            report = SieveReport(22, 6, checks, admissible, equality, listed)
            assert report.as_json() == json.dumps(report.as_dict(), separators=(",", ":"))

    def test_reports_share_the_table_tuples(self):
        first, second = screen_parameters(22, 4), screen_parameters(22, 6)
        assert first.checks is second.checks


SIEVE_DIGESTS = {
    ("--v-min", "4", "--v-max", "10000"): "a0d198d6d660795d5fd9242e5e28aa4096eee2fcd60a61a02649d9666363a84e",
    ("--v-min", "4", "--v-max", "3000", "--json"): "d19dac62ba9de82f92d33afa09feea770cfd1aa3613cf49098594ebac6b29f23",
    ("--v-min", "999800", "--v-max", "1000000"): "716aaa604f8966d390506318a060f5b0ca82e6e14c97203da9ad17144639a4fd",
    # the two sub-windows of the benchmark's sieve-json workload
    ("--v-min", "4", "--v-max", "3174", "--json"): "f8b8f35ef0642b240122db0fb26403e41b7e42f905b2fa4efa1f162b0781f5da",
    ("--v-min", "3175", "--v-max", "5000", "--json"): "b2a11870543cb1dc72f91ffd85d32f47fdd478a397726bcc5f54ab0f77597638",
}


@pytest.mark.parametrize("case", sorted(SIEVE_DIGESTS), ids=_case_id)
def test_sieve_stdout_digest(case, capsys):
    assert main(["sieve", *case]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SIEVE_DIGESTS[case]


def reference_cmd_sieve(v_min: int, v_max: int, as_json: bool) -> None:
    """`sieve` as it wrote before chunking: one or two writes per report."""
    reports = admissible_parameters(v_min, v_max, admissible_only=not as_json)
    if as_json:
        sys.stdout.write("[")
        for i, report in enumerate(reports):
            if i:
                sys.stdout.write(",")
            sys.stdout.write(report.as_json())
        sys.stdout.write("]\n")
        return
    for report in reports:
        line = f"v={report.v} k={report.k} admissible"
        if report.cameron_equality:
            line += " cameron-equality"
            if report.equality_listed:
                line += " (listed)"
        print(line)


# (v_min, v_max) -> reports: none, one, and one below, at and above one and
# two chunks of SIEVE_WRITE_CHUNK = 256 reports
SIEVE_JSON_WINDOWS = {
    (4, 4): 0,
    (4, 7): 1,
    (12, 71): 255,
    (11, 71): 256,
    (10, 71): 257,
    (8, 105): 511,
    (4, 105): 512,
    (24, 109): 513,
}
SIEVE_TEXT_WINDOWS = {
    (4, 4): 0,
    (4, 8): 1,
    (4, 382): 255,
    (15, 386): 256,
    (11, 386): 257,
    (17, 730): 511,
    (15, 730): 512,
    (11, 730): 513,
}


def _sieve_outputs(capsys, v_min: int, v_max: int, as_json: bool) -> tuple[str, str]:
    argv = ["sieve", "--v-min", str(v_min), "--v-max", str(v_max)]
    assert main(argv + ["--json"] * as_json) == 0
    got = capsys.readouterr().out
    reference_cmd_sieve(v_min, v_max, as_json)
    return got, capsys.readouterr().out


class TestChunkedSieveWriter:
    """The chunked `sieve` writer against the per-report loop it replaced."""

    def test_chunk_size(self):
        assert cli.SIEVE_WRITE_CHUNK == 256

    @pytest.mark.parametrize("window", sorted(SIEVE_JSON_WINDOWS))
    def test_json(self, window, capsys):
        got, want = _sieve_outputs(capsys, *window, as_json=True)
        assert got == want
        assert len(json.loads(got)) == SIEVE_JSON_WINDOWS[window]

    @pytest.mark.parametrize("window", sorted(SIEVE_TEXT_WINDOWS))
    def test_text(self, window, capsys):
        got, want = _sieve_outputs(capsys, *window, as_json=False)
        assert got == want
        assert got.count("\n") == SIEVE_TEXT_WINDOWS[window]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @pytest.mark.parametrize("as_json", [True, False])
    def test_small_chunks(self, chunk, as_json, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SIEVE_WRITE_CHUNK", chunk)
        for window in [(4, 4), (4, 8), (4, 30), (20, 60)]:
            got, want = _sieve_outputs(capsys, *window, as_json=as_json)
            assert got == want


# -- the lexicode ----------------------------------------------------------------
#
# The greedy scan as it was before basis words were read off the coset-
# leader table: a direct scan against the span words for the first eight
# words, then every candidate's syndrome looked up in a leader-weight table
# built by a deduplicating breadth-first search.  Kept verbatim as the
# reference.

_LEX = catalog._LEX_LENGTH


def reference_scan_with_syndromes(basis: list[int], start: int, limit: int) -> int | None:
    rows = catalog._rref(basis)
    pivots = {p for p, _ in rows}
    nonpivots = [b for b in range(_LEX) if b not in pivots]

    def packed_syndrome(word: int) -> int:
        for pivot, row in rows:
            if (word >> pivot) & 1:
                word ^= row
        out = 0
        for j, bit in enumerate(nonpivots):
            out |= ((word >> bit) & 1) << j
        return out

    tables = [
        np.array([packed_syndrome(byte << shift) for byte in range(256)], dtype=np.uint32)
        for shift in (0, 8, 16)
    ]
    # coset-leader weights by BFS, capped: 255 means weight >= distance
    size = 1 << len(nonpivots)
    weights = np.full(size, 255, dtype=np.uint8)
    weights[0] = 0
    columns = np.array([packed_syndrome(1 << j) for j in range(_LEX)], dtype=np.uint32)
    frontier = np.array([0], dtype=np.uint32)
    for depth in range(1, catalog._LEX_DISTANCE):
        nxt = (frontier[:, None] ^ columns[None, :]).ravel()
        nxt = np.unique(nxt[weights[nxt] == 255])
        if nxt.size == 0:
            break
        weights[nxt] = depth
        frontier = nxt

    t0, t1, t2 = tables
    c = start
    block = 1 << 20
    while c < limit:
        hi = min(c + block, limit)
        cand = np.arange(c, hi, dtype=np.uint32)
        syn = t0[cand & 0xFF] ^ t1[(cand >> 8) & 0xFF] ^ t2[cand >> 16]
        hits = (weights[syn] == 255).nonzero()[0]
        if hits.size:
            return int(cand[hits[0]])
        c = hi
    return None


def reference_lexicode() -> tuple[list[int], tuple[int, ...]]:
    """The greedy basis and the sorted codewords."""
    basis: list[int] = []
    span = np.zeros(1, dtype=np.uint32)
    c = 1
    limit = 1 << _LEX
    chunk = 1 << 16
    while len(basis) < catalog._LEX_DIMENSION and c < limit:
        if len(basis) < 8:
            hi = min(c + chunk, limit)
            cand = np.arange(c, hi, dtype=np.uint32)
            alive = np.ones(cand.shape, dtype=bool)
            for w in span:
                if not alive.any():
                    break
                sub = cand[alive]
                alive[alive.nonzero()[0]] = np.bitwise_count(sub ^ w) >= catalog._LEX_DISTANCE
            hits = alive.nonzero()[0]
            if hits.size:
                found = int(cand[hits[0]])
            else:
                c = hi
                continue
        else:
            found = reference_scan_with_syndromes(basis, c, limit)
            if found is None:
                break
        basis.append(found)
        span = np.concatenate([span, span ^ np.uint32(found)])
        c = found + 1
    return basis, tuple(sorted(int(w) for w in span))


@pytest.fixture(scope="module")
def greedy_lexicode():
    return reference_lexicode()


class TestLexicodeDifferential:
    def test_same_codewords(self, greedy_lexicode):
        basis, words = greedy_lexicode
        assert len(basis) == catalog._LEX_DIMENSION
        assert lexicode_codewords() == words

    @pytest.mark.parametrize("size", range(catalog._LEX_SCAN_WORDS, catalog._LEX_DIMENSION))
    def test_read_off_matches_the_scan(self, size, greedy_lexicode):
        basis = greedy_lexicode[0][:size]
        scanned = reference_scan_with_syndromes(basis, basis[-1] + 1, 1 << _LEX)
        found = catalog._read_off(*catalog._coset_table(basis))[1]
        assert found == scanned == greedy_lexicode[0][size]

    def test_full_code_has_no_far_coset(self, greedy_lexicode):
        # the Golay code has covering radius 4: every coset is near
        assert catalog._read_off(*catalog._coset_table(greedy_lexicode[0]))[1] is None


# The coset-leader table as it was built before the meet-in-the-middle
# marking and the fold: a breadth-first search over sums of at most 7
# columns, rebuilt for every basis.  Kept verbatim as the reference.


def reference_coset_table(basis: list[int]) -> tuple[np.ndarray, list[int]]:
    rows = catalog._rref(basis)
    pivots = {p for p, _ in rows}
    nonpivots = [b for b in range(_LEX) if b not in pivots]
    columns = []
    for j in range(_LEX):
        word = 1 << j
        for pivot, row in rows:
            if (word >> pivot) & 1:
                word ^= row
        columns.append(sum(1 << i for i, bit in enumerate(nonpivots) if (word >> bit) & 1))
    # near[s]: some sum of at most 7 columns has syndrome s (leader weight < 8)
    near = np.zeros(1 << len(nonpivots), dtype=bool)
    near[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    for _ in range(catalog._LEX_DISTANCE - 1):
        fresh = np.zeros_like(near)
        for col in columns:
            fresh[frontier ^ col] = True
        fresh &= ~near
        near |= fresh
        frontier = np.flatnonzero(fresh)
    return near, nonpivots


def _random_basis(rng: random.Random, size: int) -> list[int]:
    """`size` independent random words of length 24."""
    basis: list[int] = []
    while len(basis) < size:
        word = rng.getrandbits(_LEX)
        try:
            catalog._rref(basis + [word])
        except catalog.GolayConstructionError:
            continue
        basis.append(word)
    return basis


def _assert_same_table(got, want):
    near, nonpivots = got
    assert nonpivots == want[1]
    assert near.dtype == want[0].dtype and near.shape == want[0].shape
    assert np.array_equal(near, want[0])


def _folded(basis: list[int], word: int):
    """The table of `basis` folded by the syndrome of `word` under it."""
    near, nonpivots = catalog._coset_table(basis)
    s = catalog._syndrome(catalog._rref(basis), nonpivots, word)
    return catalog._fold(near, nonpivots, s)


LEX_SIZES = range(catalog._LEX_SCAN_WORDS, catalog._LEX_DIMENSION)
RANDOM_BASES = [(seed, 5 + seed % 7) for seed in range(21)]


class TestCosetTableDifferential:
    @pytest.mark.parametrize("size", LEX_SIZES)
    def test_table_of_a_lexicode_prefix(self, size, greedy_lexicode):
        basis = greedy_lexicode[0][:size]
        _assert_same_table(catalog._coset_table(basis), reference_coset_table(basis))

    @pytest.mark.parametrize("seed,size", RANDOM_BASES)
    def test_table_of_a_random_basis(self, seed, size):
        basis = _random_basis(random.Random(seed), size)
        _assert_same_table(catalog._coset_table(basis), reference_coset_table(basis))

    @pytest.mark.parametrize("size", LEX_SIZES)
    def test_fold_at_each_lexicode_step(self, size, greedy_lexicode):
        basis = greedy_lexicode[0][: size + 1]
        _assert_same_table(_folded(basis[:-1], basis[-1]), reference_coset_table(basis))

    @pytest.mark.parametrize("seed,size", RANDOM_BASES)
    def test_fold_by_a_random_word(self, seed, size):
        basis = _random_basis(random.Random(1000 + seed), size + 1)
        _assert_same_table(_folded(basis[:-1], basis[-1]), reference_coset_table(basis))

    def test_read_off_matches_the_reference_table(self, greedy_lexicode):
        basis = greedy_lexicode[0]
        for size in LEX_SIZES:
            near, nonpivots = reference_coset_table(basis[:size])
            assert catalog._read_off(near, nonpivots)[1] == basis[size]


# -- the octads -------------------------------------------------------------------


def reference_octad_design() -> Design:
    """The octads by a comprehension over the codewords and their bits."""
    octads = sorted(
        tuple(i for i in range(24) if (w >> i) & 1)
        for w in lexicode_codewords()
        if w.bit_count() == 8
    )
    return Design(24, 5, octads)


def test_octad_design_matches_the_comprehension(monkeypatch):
    want = reference_octad_design()
    # the rows reach Design canonical, so its sort-and-check path never runs
    monkeypatch.setattr(design_module, "_check_blocks", None)
    got = catalog.construct_octad_design()
    assert got == want
    assert got.block_array.dtype == np.int32
    assert np.array_equal(got.block_array, want.block_array)
    assert got.blocks == want.blocks
