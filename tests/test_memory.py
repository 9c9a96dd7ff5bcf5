"""Peak allocations of the 128-point Netto construction and its block
orbit, flag check and block action, design file round trip, design
comparison, lexicode and `--json` sieve sweep, and what a constructed or
loaded 128-point design holds.

`tracemalloc` sees NumPy's array buffers as well as Python objects, so
these peaks are deterministic for a given interpreter and NumPy.
"""

import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from steiner3.catalog import (
    CatalogError,
    _block_orbit,
    _projective_line,
    affine_group_generators,
    construct_boolean_affine,
    construct_netto_extension,
    lexicode_codewords,
    projective_group_generators,
)
from steiner3.cli import main
from steiner3.design import Design, from_json, to_json
from steiner3.permgrp import block_action, is_flag_transitive

MB = 2**20


def peak_mb(fn, *args) -> float:
    """The most memory allocated at once while fn(*args) runs, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def netto127():
    return construct_netto_extension(127)


@pytest.mark.parametrize(
    "build",
    [construct_boolean_affine, lambda d: affine_group_generators("AGL_d_2", d)],
    ids=["construct", "generators"],
)
def test_affine_dimension_bounded_without_a_power(build):
    # 1 << 10**9 is a 125 MB integer
    def rejected(d):
        with pytest.raises(CatalogError, match="got 1000000000"):
            build(d)

    assert peak_mb(rejected, 10**9) < 1


def test_flag_check_holds_no_flag_table():
    # 3 generators on 85344 blocks; with an (m, b*k) flag table and the
    # rank arrays that fill it, the peak was 20 MB.  The design's own
    # cached block array is built first: it outlives the check.
    design = construct_boolean_affine(7)
    design.block_array
    gens = affine_group_generators("AGammaL_1", 7)
    assert peak_mb(is_flag_transitive, design, gens) < 12


def test_netto_orbit_holds_no_dense_table():
    # a dense v^3 table of block owners alone would add 8 MB (int64)
    assert peak_mb(construct_netto_extension, 127) < 13


def test_from_json_never_holds_lists_and_tuples_of_every_block(netto127):
    text = to_json(netto127)
    assert peak_mb(from_json, text) < 10


def test_loaded_design_holds_one_block_array(netto127):
    # a tuple per block held 6.5 MB; the (85344, 4) int32 array is 1.3 MB
    text = to_json(netto127)
    tracemalloc.start()
    try:
        design = from_json(text)
        held = tracemalloc.get_traced_memory()[0] / MB
    finally:
        tracemalloc.stop()
    assert design._blocks is None
    assert held < 3


def test_flag_check_of_a_loaded_design(netto127):
    # loaded as tuples and looked up by prefix keys, this peaked at 18.7 MB
    text = to_json(netto127)
    gens = projective_group_generators("PSL", 127, 1)
    assert peak_mb(lambda: is_flag_transitive(from_json(text), gens)) < 12


def test_equal_loaded_designs_compare_without_tuples(netto127):
    # comparing and hashing `.blocks` built the tuple form of both designs:
    # 13.0 MB held and a 15.7 MB peak
    text = to_json(netto127)
    first, second = from_json(text), from_json(text)

    def compare():
        assert first == second and hash(first) == hash(second)

    assert peak_mb(compare) < 2
    assert first._blocks is None and second._blocks is None


def test_to_json_copies_no_block(netto127):
    assert peak_mb(to_json, netto127) < 6


@pytest.mark.parametrize(
    "build,arg",
    [(construct_netto_extension, 127), (construct_boolean_affine, 7)],
    ids=["netto-127", "affine-7"],
)
def test_constructed_design_holds_one_block_array(build, arg):
    # as 85344 tuples the design held 6.5 MB; the (85344, 4) int32 array
    # is 1.3 MB
    tracemalloc.start()
    try:
        design = build(arg)
        held = tracemalloc.get_traced_memory()[0] / MB
    finally:
        tracemalloc.stop()
    assert design._blocks is None
    assert held < 3


def test_from_json_parses_its_own_layout_without_lists(netto127):
    # json.loads made a list per block: 9.45 MB; the parse straight into
    # the array peaks at 3.0 MB
    text = to_json(netto127)
    assert peak_mb(from_json, text) < 4.5


def test_to_json_writes_an_array_in_chunks():
    # from the array the constructor built, with no tuple per block: the
    # tuples and json.dumps peaked at 3.8 MB over the tuples, the chunked
    # writer at 2.4 MB
    design = construct_netto_extension(127)
    assert design._blocks is None
    assert peak_mb(to_json, design) < 3.5


def test_lexicode_folds_its_coset_leader_table():
    # a breadth-first search per basis word, with its frontier arrays,
    # peaked at 2.35 MB; one 2^19-entry table, marked a few rows at a time
    # and then folded, peaks near 0.95 MB
    lexicode_codewords.cache_clear()
    assert peak_mb(lexicode_codewords) < 1.25


def sieve_json_peak_mb(v_max: int) -> float:
    return peak_mb(main, ["sieve", "--v-min", "4", "--v-max", str(v_max), "--json"])


def test_json_sieve_streams_in_constant_memory(counting_sink):
    # 225722 reports, 49 MB of JSON, written to a sink that keeps none of
    # it; a first run builds what is built once (the parser's regexes)
    with redirect_stdout(counting_sink):
        sieve_json_peak_mb(500)
        small, large = sieve_json_peak_mb(500), sieve_json_peak_mb(5000)
    assert large < 1
    assert large - small < 0.1


def test_block_action_makes_no_int_per_block(netto127):
    # the induced permutation as a tuple held 85344 ints, 3.25 MB, and
    # the call peaked at 4.23 MB; as an int32 array it holds 0.33 MB and
    # the call peaks at 2.27 MB (the image rows and their lookup)
    netto127.rank_table()
    g = projective_group_generators("PSL", 127, 1).gens[0]
    tracemalloc.start()
    try:
        induced = block_action(netto127, g)
        held, peak = (size / MB for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert induced.nbytes == 4 * netto127.b
    assert held < 0.4
    assert peak < 2.5


def test_block_action_maps_the_blocks_in_chunks(netto127):
    # the image rows of every block, gathered before the lookup, peaked
    # at 2.27 MB; CHUNK_ROWS blocks mapped and looked up at a time, 1.45 MB
    netto127.rank_table()
    g = projective_group_generators("PSL", 127, 1).gens[0]
    assert peak_mb(block_action, netto127, g) < 1.6


def test_block_writer_grows_with_the_file_not_the_block_width():
    # one 2000-point block: a template of CHUNK_ROWS rows of 2000 "%d"
    # each, built whatever the block count, peaked at 93.9 MB
    design = Design(2**31, 2000, [list(range(2000))])
    text = to_json(design)
    assert peak_mb(to_json, design) < 1
    assert peak_mb(from_json, text) < 1


@pytest.fixture(scope="module")
def wide_design():
    """20 000 blocks of 32 points on 64 points, a 1.86 MB file."""
    rng = np.random.default_rng(0)
    rows = np.unique(np.sort(rng.random((20000, 64)).argsort(axis=1)[:, :32], axis=1), axis=0)
    return Design(64, 3, rows)


def test_block_writer_pieces_hold_a_bounded_number_of_points(wide_design):
    # pieces of CHUNK_ROWS rows whatever the width made 524 288 ints at
    # once, and from_json of the bytes peaked at 12.0 MB, to_json at 9.5 MB
    data = to_json(wide_design).encode()
    assert (wide_design.b, len(data)) == (20000, 1860145)
    assert peak_mb(from_json, data) < 5
    assert peak_mb(to_json, wide_design) < 4


def test_from_json_reads_text_in_place(wide_design):
    # encoding the text first peaked at 5.96 MB against 4.19 MB for the bytes
    text = to_json(wide_design)
    assert peak_mb(from_json, text) < peak_mb(from_json, text.encode()) + 0.3


def test_netto_orbit_maps_each_level_in_chunks():
    # a whole level mapped at once peaked at 5.93 MB, over frontiers of
    # up to 35k blocks; CHUNK_ROWS frontier blocks at a time, 4.95 MB
    line = _projective_line(127, 1)
    base = tuple(sorted((0, 1, line.ctx.primitive_sixth_root(), line.infinity)))
    gens = line.group("PSL").gens
    assert peak_mb(_block_orbit, gens, base) < 5.3


def test_from_json_parses_the_bytes_of_its_own_layout(netto127):
    # the text, its slice and the slice without row brackets peaked at
    # 2.97 MB; from the bytes, with one copy of the rows, 2.52 MB
    data = to_json(netto127).encode()
    assert peak_mb(from_json, data) < 2.75
