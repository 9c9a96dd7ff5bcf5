"""Design container, counting identities, derivation, bounds, JSON."""

import json
import math
import random
from itertools import combinations, product

import numpy as np
import pytest

from steiner3 import design as design_module
from steiner3.catalog import is_affine_line_system
from steiner3.design import (
    Design,
    DesignError,
    block_limit,
    derived_design,
    from_json,
    params_of,
    to_json,
    verify_steiner,
)
from steiner3.gf import FieldContext
from steiner3.sieve import blocksize_bound, cameron_check, cameron_limits


def xor_quadruples(d: int):
    """Oracle construction: all 4-sets of GF(2)^d summing to zero."""
    n = 1 << d
    blocks = []
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(y + 1, n):
                w = x ^ y ^ z
                if w > z:
                    blocks.append((x, y, z, w))
    return blocks


@pytest.fixture
def affine3():
    return Design(8, 3, xor_quadruples(3))


class TestDesignContainer:
    def test_canonicalization(self):
        d = Design(5, 2, [[3, 1], [0, 4], [2, 0]])
        assert d.blocks == ((0, 2), (0, 4), (1, 3))
        assert d.k == 2 and d.b == 3

    def test_block_index(self, affine3):
        for i, block in enumerate(affine3.blocks):
            assert affine3.block_index(block) == i
        assert affine3.block_index((0, 1, 2, 4)) == -1

    def test_rank_table(self, affine3):
        table = affine3.rank_table()
        for rank, (a, b, c) in enumerate(
            sorted(combinations(range(8), 3), key=lambda s: s[::-1])
        ):
            assert table[rank] == affine3.block_index((a, b, c, a ^ b ^ c))

    @pytest.mark.parametrize(
        "design,message",
        [
            # 15 blocks, and the bound C(6,3)/C(4,3) = 5 refuses them before any table
            (Design(6, 3, combinations(range(6), 4)), "15 blocks of size 4 on 6 points: .* at most 5"),
            (Design(200, 3, [(0, 1, 2, 3)]), "no ranked 3-subset table"),
            (Design(6, 2, [(0, 1), (2, 3)]), "no ranked 3-subset table"),
        ],
        ids=["repeated-3-subsets", "200-points", "blocks-of-2"],
    )
    def test_no_rank_table(self, design, message):
        with pytest.raises(DesignError, match=message):
            design.rank_table()

    @pytest.mark.parametrize(
        "blocks",
        [xor_quadruples(3), [(0, 1, 2, 3), (0, 1, 2, 4)], list(combinations(range(8), 4))],
        ids=["steiner", "repeated-3-subset", "over-full"],
    )
    def test_rank_table_is_decided_once(self, blocks, monkeypatch):
        marked = []
        fill = design_module.mark_triples
        monkeypatch.setattr(
            design_module, "mark_triples", lambda *args: marked.append(fill(*args))
        )
        design = Design(8, 3, blocks)
        for _ in range(3):
            design.block_index(np.array(blocks[:2]))
            try:
                design.block_through(0, 1, 2)
            except DesignError:
                pass
        # the fill marks once, and an over-full list is refused by the bound
        assert len(marked) == (0 if len(blocks) > 14 else 1)

    @pytest.mark.parametrize(
        "rows",
        [[0.5, 1, 2, 3], [[0, 1, 2, 3.0]], np.ones((1, 4), dtype=bool), ["0", "1", "2", "3"]],
        ids=["float-point", "float-row", "bool-row", "string-point"],
    )
    def test_block_index_rejects_points_that_are_not_integers(self, affine3, rows):
        # a float row once took the prefix path, whose int64 key read 0.5 as 0
        with pytest.raises(DesignError, match="points must be integers"):
            affine3.block_index(rows)

    def test_equality(self, affine3):
        assert affine3 == Design(8, 3, affine3.blocks)
        assert affine3 != Design(8, 2, affine3.blocks)
        assert affine3 != affine3.blocks and affine3 != "affine3"
        assert repr(affine3) == "Design(3-(8,4,1), b=14)"

    def test_block_index_keyed_by_two_points(self):
        # past 2^21 points v^3 overflows int64, so blocks are keyed by their
        # first two points and told apart by the rest
        v = 2**21 + 1
        blocks = [(0, 1, 2, 3), (0, 1, 5, v - 1), (0, 2, 3, v - 2), (4, 5, 6, v - 1)]
        design = Design(v, 3, blocks)
        for i, block in enumerate(design.blocks):
            assert design.block_index(block) == i
        assert design.block_index((0, 1, 2, v - 1)) == -1
        assert design.block_index(np.array([[0, 1, 3, 2], [1, 0, 4, 5]])).tolist() == [0, -1]

    def test_block_index_of_nothing(self, affine3):
        assert affine3.block_index([]) == -1
        assert affine3.block_index(np.empty((0, 4))).tolist() == []

    def test_rejects_duplicates(self):
        with pytest.raises(DesignError):
            Design(4, 2, [[0, 1], [1, 0]])

    def test_rejects_non_uniform(self):
        with pytest.raises(DesignError):
            Design(4, 2, [[0, 1], [0, 1, 2]])

    def test_rejects_out_of_range(self):
        with pytest.raises(DesignError):
            Design(4, 2, [[0, 4]])

    def test_rejects_repeated_point(self):
        with pytest.raises(DesignError):
            Design(4, 2, [[1, 1]])

    def test_rejects_empty_blocks(self):
        with pytest.raises(DesignError, match="empty"):
            Design(1, 1, [[]])

    def test_label_count_checked(self):
        with pytest.raises(DesignError):
            Design(3, 2, [[0, 1]], labels=["a", "b"])

    @pytest.mark.parametrize(
        "block,dims",
        [(5, 0), (np.zeros((2, 4, 4), dtype=np.int32), 3)],
        ids=["scalar", "3-D"],
    )
    def test_block_index_takes_one_set_or_rows(self, affine3, block, dims):
        # these raised IndexError and a broadcasting ValueError
        with pytest.raises(DesignError) as info:
            affine3.block_index(block)
        assert str(info.value) == f"expected one point set or a 2-D array of rows, got {dims}-D"

    @pytest.mark.parametrize(
        "design",
        [
            Design(8, 3, xor_quadruples(3)),
            Design(200, 3, [(0, 1, 2, 3), (0, 1, 4, 199), (5, 6, 7, 8)]),
            Design(6, 2, [(0, 1), (2, 3), (4, 5)]),
        ],
        ids=["ranked", "200-points", "blocks-of-2"],
    )
    def test_block_index_of_rows_is_int32(self, design):
        # the prefix lookup and the width check returned int64, the
        # ranked lookup int32
        rows = design.block_array
        for dtype in (np.int32, np.int64, np.uint8):
            found = design.block_index(rows[::-1].astype(dtype))
            assert found.dtype == np.int32
            assert found.tolist() == list(range(design.b))[::-1]
        for width in (rows[:, :-1], np.concatenate([rows, rows[:, :1]], axis=1)):
            found = design.block_index(width)
            assert found.dtype == np.int32 and found.tolist() == [-1] * design.b


def scanned_block_through(design: Design, x: int, y: int, z: int) -> int:
    """The first block holding {x, y, z}, found by scanning `.blocks`;
    -1 where there is none or the three points are not distinct."""
    triple = {x, y, z}
    if len(triple) == 3:
        for i, block in enumerate(design.blocks):
            if triple <= set(block):
                return i
    return -1


class TestBlockThrough:
    @pytest.mark.parametrize(
        "key",
        [("affine", 3), ("netto", 7), ("spherical", 3, 2), ("witt",)],
        ids=["aff3", "n7", "s32", "witt"],
    )
    def test_against_a_scan_of_the_blocks(self, key, catalogue):
        # every (x, y, z) over the points and one beyond each end
        design = catalogue[key]
        points = range(-1, design.v + 1)
        triples = list(product(points, repeat=3))
        want = [scanned_block_through(design, *triple) for triple in triples]
        x, y, z = np.array(triples).T
        assert design.block_through(x, y, z).tolist() == want
        assert [int(design.block_through(*triple)) for triple in triples] == want
        # a scalar broadcast against arrays, and int32 arrays
        per_x = np.array(want).reshape(len(points), -1)
        for i, point in enumerate(points):
            found = design.block_through(point, y[: per_x.shape[1]], z[: per_x.shape[1]])
            assert found.tolist() == per_x[i].tolist()
        typed = (p.astype(np.int32) for p in (x, y, z))
        assert design.block_through(*typed).tolist() == want

    @pytest.mark.parametrize(
        "design,message",
        [
            (Design(6, 2, [(0, 1), (2, 3)]), "no ranked 3-subset table"),
            (Design(200, 3, [(0, 1, 2, 3)]), "no ranked 3-subset table"),
            (Design(7, 3, [(0, 1, 2, 3), (0, 1, 2, 4)]), "2 blocks of size 4 cover 7 3-subsets"),
        ],
        ids=["blocks-of-2", "200-points", "repeated-3-subset"],
    )
    def test_no_rank_table(self, design, message):
        with pytest.raises(DesignError, match=message):
            design.block_through(0, 1, 2)


class TestPointCountAndStrength:
    @pytest.mark.parametrize(
        "v,t,message",
        [
            (np.int64(8), 3, "point count must be an int, got np.int64(8)"),
            (8.0, 3, "point count must be an int, got 8.0"),
            (8, 3.0, "strength must be an int, got 3.0"),
            (True, 1, "point count must be an int, got True"),
        ],
        ids=["numpy-v", "float-v", "float-t", "bool-v"],
    )
    def test_must_be_ints(self, v, t, message):
        # to_json raised TypeError on a NumPy v, and wrote the others to a
        # file that from_json rejected
        with pytest.raises(DesignError) as info:
            Design(v, t, [(0, 1, 2, 3)])
        assert str(info.value) == message

    def test_valid_design_round_trips(self, affine3):
        labelled = Design(8, 3, affine3.blocks, labels=list("abcdefgh"))
        for design in (affine3, labelled):
            text = to_json(design)
            assert from_json(text) == design and to_json(from_json(text)) == text

    def test_at_most_2_to_the_31_points(self):
        top = Design(2**31, 3, [[0, 1, 2, 2**31 - 1]])
        assert top.block_array.dtype == np.int32 and top.blocks == ((0, 1, 2, 2**31 - 1),)
        text = to_json(top)
        assert from_json(text) == top and to_json(from_json(text)) == text
        with pytest.raises(DesignError) as info:
            Design(2**31 + 1, 3, [[0, 1, 2, 3]])
        assert str(info.value) == f"point count must be at most 2^31, got {2**31 + 1}"


def scrambled(blocks, seed: int) -> list[list[int]]:
    """The same blocks, each with its points and the list itself shuffled."""
    rng = random.Random(seed)
    out = [rng.sample(list(block), len(block)) for block in blocks]
    rng.shuffle(out)
    return out


def design_error(v: int, blocks) -> str:
    with pytest.raises(DesignError) as info:
        Design(v, 2, blocks)
    return str(info.value)


class TestCanonicalInput:
    """Canonical input skips the sorts; any other order is sorted first.
    Both must give the same design and the same error."""

    def test_catalogue_designs(self, catalogue):
        rng = random.Random(1)
        for design in catalogue.values():
            canonical = Design(design.v, design.t, [list(b) for b in design.blocks])
            unsorted = Design(design.v, design.t, scrambled(design.blocks, design.v))
            # the rows reversed, each row's points shuffled
            reversed_rows = [rng.sample(block, len(block)) for block in design.blocks[::-1]]
            backwards = Design(design.v, design.t, reversed_rows)
            assert canonical == unsorted == backwards == design
            assert canonical.blocks == design.blocks
            for built in (canonical, unsorted, backwards):
                assert built.block_array.dtype == np.int32
                assert not built.block_array.flags.writeable
                assert np.array_equal(built.block_array, design.block_array)

    @pytest.mark.parametrize("point", [2**31, 2**40], ids=["2^31", "2^40"])
    def test_list_point_beyond_int32(self, point):
        # the list is checked before any cast to int32, so a point that
        # int32 cannot hold is out of range, never an OverflowError
        with pytest.raises(DesignError) as info:
            Design(2**31, 3, [[0, 1, 2, point]])
        assert str(info.value) == f"block (0, 1, 2, {point}) out of range for {2**31} points"

    def test_random_blocks(self):
        rng = random.Random(0)
        for _ in range(200):
            v, k = rng.randint(4, 12), rng.randint(1, 4)
            blocks = {tuple(sorted(rng.sample(range(v), k))) for _ in range(rng.randint(1, 9))}
            canonical = sorted(blocks)
            want = tuple(canonical)
            assert Design(v, 2, canonical).blocks == want
            assert Design(v, 2, scrambled(canonical, v)).blocks == want
            assert Design(v, 2, iter(canonical)).blocks == want

    def test_arrays(self, catalogue):
        # a canonical integer array is kept, as int32 and read-only; any
        # other array goes the way of the lists it holds
        for design in catalogue.values():
            for dtype in (np.int64, np.uint8):
                kept = Design(design.v, design.t, design.block_array.astype(dtype))
                assert kept._blocks is None and kept.block_array.dtype == np.int32
                assert not kept.block_array.flags.writeable
                assert kept == design and kept.blocks == design.blocks
            unsorted = np.array(scrambled(design.blocks, 1))
            assert Design(design.v, design.t, unsorted) == design
        assert design_error(4, np.array([[0, 1], [1, 0]])) == "duplicate block (0, 1)"
        assert design_error(4, np.array([[0, 4]])) == "block (0, 4) out of range for 4 points"

    def test_blocks_are_tuples_of_the_input_points(self):
        design = Design(5, 2, [[0, 1], [2, 4]])
        assert design.blocks == ((0, 1), (2, 4))
        assert all(type(block) is tuple for block in design.blocks)

    @pytest.mark.parametrize(
        "v,canonical,message",
        [
            (4, [[0, 1], [0, 1]], "duplicate block (0, 1)"),
            (4, [[0, 1], [0, 1, 2]], "non-uniform block size: 3 != 2"),
            (4, [[0, 1], [2, 4]], "block (2, 4) out of range for 4 points"),
            (4, [[-1, 0], [1, 2]], "block (-1, 0) out of range for 4 points"),
            (4, [[0, 1], [1, 1]], "repeated point in block (1, 1)"),
            (4, [], "a design needs at least one block"),
            (4, [[]], "blocks must not be empty"),
        ],
        ids=["duplicate", "non-uniform", "above-range", "below-range", "repeated", "none", "empty"],
    )
    def test_same_errors(self, v, canonical, message):
        assert design_error(v, canonical) == message
        for seed in range(3):
            assert design_error(v, scrambled(canonical, seed)) == message

    @pytest.mark.parametrize(
        "blocks,named",
        [
            ([[0, 1, 2.5, 3]], "(0, 1, 2.5, 3)"),
            (np.array([[0.0, 1.0, 2.0, 3.0]]), "(0.0, 1.0, 2.0, 3.0)"),
            ([[True, 2, 3, 4]], "(True, 2, 3, 4)"),
            ([[0, 1, 2, 3], [4, 5, 6, np.int64(7)]], "(4, 5, 6, np.int64(7))"),
        ],
        ids=["float-point", "float-array", "bool-point", "numpy-int-point"],
    )
    def test_points_that_are_not_ints(self, blocks, named):
        # to_json used to write these, and from_json to reject what it wrote
        with pytest.raises(DesignError) as info:
            Design(8, 3, blocks)
        assert str(info.value) == f"block {named} has a point that is not an int"


class TestBlockCount:
    def test_steiner_systems_sit_at_the_limit(self, catalogue):
        for key, design in catalogue.items():
            assert design.b * math.comb(design.k, 3) == math.comb(design.v, 3), key
            block_limit(design.v, design.k, design.b)

    def test_one_block_too_many(self, affine3):
        extra = next(s for s in combinations(range(8), 4) if s not in affine3.blocks)
        with pytest.raises(DesignError, match="at most 14"):
            design = Design(8, 3, affine3.blocks + (extra,))
            block_limit(design.v, design.k, design.b)

    @pytest.mark.parametrize("k", [1, 2])
    def test_small_blocks_are_bounded_by_the_subsets(self, k):
        design = Design(6, 1, combinations(range(6), k))
        block_limit(design.v, design.k, design.b)

    def test_blocks_sharing_three_points(self):
        with pytest.raises(DesignError, match="15 blocks of size 4 on 6 points"):
            design = Design(6, 3, combinations(range(6), 4))
            block_limit(design.v, design.k, design.b)


class TestParams:
    def test_affine3(self, affine3):
        p = params_of(affine3)
        assert (p.t, p.v, p.k, p.b, p.r, p.lambda2) == (3, 8, 4, 14, 7, 3)
        assert p.lam == 1
        # cross-check against the closed forms
        assert p.b == 8 * 7 * 6 // 24
        assert p.r == p.b * p.k // p.v
        assert p.r * (p.k - 1) == p.lambda2 * (p.v - 1)

    def test_lambda_two_design_rejected(self):
        # all 3-subsets of 6 points form a 2-(6,3,2) design
        from itertools import combinations, product

        with pytest.raises(DesignError):
            params_of(Design(6, 2, combinations(range(6), 3)))

    def test_steiner_triple_system(self):
        fano = Design(
            7, 2,
            [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)],
        )
        p = params_of(fano)
        assert (p.v, p.k, p.b, p.r, p.lambda2) == (7, 3, 7, 3, 1)

    @pytest.mark.parametrize(
        "design,message",
        [
            (
                Design(4, 1, [(0,), (1,), (2,), (3,)]),
                "parameters need strength at least 2, got t=1",
            ),
            (Design(6, 3, [(0, 1), (2, 3), (4, 5)]), "need t <= k <= v, got t=3, k=2, v=6"),
            # b = C(4,2)/C(3,2) = 2, but r = bk/v = 3/2
            (Design(4, 2, [(0, 1, 2), (0, 1, 3)]), "bk = vr fails: 2*3 not divisible by 4"),
            # b = C(10,3)/C(5,3) = 12 and r = 6, but lambda2 = 8/3
            (Design(10, 3, list(combinations(range(10), 5))[:12]), "pair count is not integral"),
        ],
        ids=["t1", "t-above-k", "r", "lambda2"],
    )
    def test_refused_before_the_direct_counts(self, design, message):
        with pytest.raises(DesignError) as info:
            params_of(design)
        assert str(info.value) == message

    def test_direct_counts(self, affine3):
        # 14 blocks of 4 points on 8, as a Steiner 3-(8,4,1) design has, with
        # one block through 0 (and 1) moved: off 0, then off 1 only
        planes = [block for block in affine3.blocks if block != (0, 1, 2, 3)]
        off_one = next(
            s for s in combinations(range(8), 4) if 0 in s and 1 not in s and s not in planes
        )
        for moved, message in [
            ((1, 2, 3, 4), "point 0 lies in 6 blocks, expected r = 7"),
            (off_one, "pair (0,1) lies in 2 blocks, expected lambda2 = 3"),
        ]:
            with pytest.raises(DesignError) as info:
                params_of(Design(8, 3, planes + [moved]))
            assert str(info.value) == message


class TestVerify:
    def test_affine3_ok(self, affine3):
        assert verify_steiner(affine3).ok

    def test_affine4_ok(self):
        assert verify_steiner(Design(16, 3, xor_quadruples(4))).ok

    def test_missing_block_detected(self, affine3):
        broken = Design(8, 3, affine3.blocks[1:])
        report = verify_steiner(broken)
        assert not report.ok
        assert report.count == 0
        assert set(report.witness) <= set(affine3.blocks[0])

    def test_double_cover_detected(self, affine3):
        extra = next(
            tuple(b) for b in
            ((x, y, z, w) for x in range(8) for y in range(x + 1, 8)
             for z in range(y + 1, 8) for w in range(z + 1, 8))
            if affine3.block_index(b) < 0
        )
        report = verify_steiner(Design(8, 3, affine3.blocks + (extra,)))
        assert not report.ok
        assert report.count == 2

    def test_budget(self):
        with pytest.raises(DesignError):
            verify_steiner(Design(200, 3, [(0, 1, 2, 3)]))


class TestDerived:
    def test_all_points_of_affine3(self, affine3):
        for x in range(affine3.v):
            der = derived_design(affine3, x)
            p = params_of(der)
            assert (p.t, p.v, p.k, p.b) == (2, 7, 3, 7)
            assert verify_steiner(der, 2).ok

    def test_relabeling_preserves_order(self, affine3):
        der = derived_design(affine3, 3)
        # block {0,3,5,6} through 3 becomes {0,4,5}: 5 and 6 shift down by one
        assert affine3.block_index((0, 3, 5, 6)) >= 0
        assert der.block_index((0, 4, 5)) >= 0

    def test_point_out_of_range(self, affine3):
        with pytest.raises(DesignError):
            derived_design(affine3, 8)

    def test_strength_one_rejected(self):
        with pytest.raises(DesignError):
            derived_design(Design(3, 1, [(0,), (1,), (2,)]), 0)


class TestAffineLineSystem:
    def test_spherical_derived_at_infinity(self):
        from steiner3.catalog import construct_spherical

        design = construct_spherical(3, 2)
        der = derived_design(design, 9)  # infinity has the last id
        assert is_affine_line_system(der, FieldContext(3, 2), 3)

    def test_netto_derived_is_not_a_line_system(self):
        from steiner3.catalog import construct_netto_extension

        design = construct_netto_extension(19)
        der = derived_design(design, 19)
        assert not is_affine_line_system(der, FieldContext(19, 1), 3)

    def test_size_mismatch_rejected(self):
        with pytest.raises(DesignError):
            is_affine_line_system(Design(3, 2, [(0, 1)]), FieldContext(3, 2), 3)

    def test_block_size_other_than_the_line_size_rejected(self):
        design = Design(9, 2, [(0, 1, 2, 3)])
        with pytest.raises(DesignError, match="block size 4 does not match line size 3"):
            is_affine_line_system(design, FieldContext(3, 2), 3)


class TestCameron:
    def test_known_equality_cases(self):
        for t, k, v in ((3, 4, 8), (3, 6, 22), (3, 12, 112), (4, 7, 23), (5, 8, 24)):
            result = cameron_check(t, k, v)
            assert result.status == "equality"
            assert result.listed

    def test_strict(self):
        assert cameron_check(3, 4, 10).status == "strict"

    def test_violated(self):
        assert cameron_check(3, 5, 10).status == "violated"

    def test_unlisted_equality(self):
        # v - 2 = (k-1)(k-2) without being one of the known cases
        result = cameron_check(3, 5, 14)
        assert result.status == "equality"
        assert not result.listed

    def test_first_bound_for_t2(self):
        assert cameron_check(2, 3, 7).status == "strict"
        assert cameron_check(2, 5, 10).status == "violated"

    def test_trivial_inputs_rejected(self):
        with pytest.raises(DesignError):
            cameron_check(3, 4, 4)

    def test_limits_against_the_defining_inequalities(self):
        for t in range(1, 7):
            for v in range(t + 2, 400):
                largest_a, largest_b, equality = cameron_limits(t, v)
                for k in range(t + 1, v):
                    assert (v >= (t + 1) * (k - t + 1)) == (k <= largest_a)
                    if t > 2:
                        room, need = v - t + 1, (k - t + 2) * (k - t + 1)
                        assert (room >= need) == (k <= largest_b)
                        assert (room == need) == (k == equality)
                if t <= 2:
                    assert largest_b is None and equality is None

    def test_limits_at_the_equality_cases(self):
        for t, k, v in ((3, 4, 8), (3, 6, 22), (3, 12, 112), (4, 7, 23), (5, 8, 24)):
            assert cameron_limits(t, v)[1:] == (k, k)
        assert cameron_limits(3, 23) == (7, 6, None)


class TestBlocksizeBound:
    @pytest.mark.parametrize("v,want", [(22, 6), (8, 4), (100, 11)])
    def test_values(self, v, want):
        assert blocksize_bound(v) == want

    def test_against_defining_inequality(self):
        for v in range(4, 3000):
            want = max(k for k in range(2, v + 3) if (2 * k - 3) ** 2 <= 4 * v)
            assert blocksize_bound(v) == want

    def test_monotone(self):
        values = [blocksize_bound(v) for v in range(4, 2000)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_small_v_rejected(self):
        with pytest.raises(DesignError):
            blocksize_bound(3)


class TestJson:
    def test_round_trip(self, affine3):
        assert from_json(to_json(affine3)) == affine3

    def test_round_trip_with_labels(self):
        d = Design(3, 2, [(0, 1), (0, 2), (1, 2)], labels=("a", "b", "c"))
        again = from_json(to_json(d))
        assert again == d and again.labels == ("a", "b", "c")

    def test_emission_is_stable(self, affine3):
        assert to_json(affine3) == to_json(from_json(to_json(affine3)))

    def test_lambda_must_be_one(self):
        with pytest.raises(DesignError):
            from_json('{"v": 3, "t": 2, "lambda": 2, "blocks": [[0, 1]]}')

    @pytest.mark.parametrize("lam", ["true", "1.0", '"1"', "[1]"])
    def test_lambda_of_another_type_rejected(self, lam):
        with pytest.raises(DesignError, match="lambda = 1"):
            from_json('{"v": 3, "t": 2, "lambda": %s, "blocks": [[0, 1]]}' % lam)

    def test_missing_field_rejected(self):
        with pytest.raises(DesignError):
            from_json('{"v": 3, "blocks": [[0, 1]]}')

    def test_invalid_json_rejected(self):
        with pytest.raises(DesignError):
            from_json("not json")

    @pytest.mark.parametrize(
        "blocks",
        [
            [[0, 1, True]],
            [[0, 1, 2.0]],
            [[0, 1, "2"]],
            [[0, 1, [2]]],
            [[0, 1, 2], 3],
            [[0, 1, 2], "012"],
            [[0, 1, 2], {"0": 1}],
            "012",
            {"0": [0, 1, 2]},
        ],
        ids=[
            "bool-point", "float-point", "string-point", "nested-list-point",
            "int-block", "string-block", "object-block", "string-blocks", "object-blocks",
        ],
    )
    def test_blocks_of_the_wrong_type_rejected(self, blocks):
        payload = json.dumps({"v": 4, "t": 2, "blocks": blocks})
        with pytest.raises(DesignError, match="list of lists of integers"):
            from_json(payload)

    @pytest.mark.parametrize("value", [True, 3.0, "3", None, [3]])
    @pytest.mark.parametrize("key", ["v", "t"])
    def test_counts_of_the_wrong_type_rejected(self, key, value):
        payload = {"v": 4, "t": 2, "blocks": [[0, 1, 2]]}
        payload[key] = value
        with pytest.raises(DesignError, match="must be an integer"):
            from_json(json.dumps(payload))
