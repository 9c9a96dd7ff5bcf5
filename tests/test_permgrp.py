"""Generator sets, orbits, Schreier-Sims, design actions, generator files."""

import random

import numpy as np
import pytest

from steiner3 import permgrp
from steiner3.catalog import (
    _block_orbit,
    affine_group_generators,
    construct_boolean_affine,
    construct_netto_extension,
    construct_spherical,
    projective_group_generators,
)
from steiner3.design import Design, DesignError
from steiner3.permgrp import (
    GeneratorSet,
    PermutationError,
    SearchBudgetExceeded,
    SetNotPreserved,
    automorphism_group,
    block_action,
    format_generators,
    group_order,
    is_flag_transitive,
    orbit,
    parse_generators,
)


def compose(p: tuple, q: tuple) -> tuple:
    """Left to right: x -> q(p(x))."""
    return tuple(q[x] for x in p)


class TestPermutation:
    def test_from_cycles(self):
        gens = parse_generators("degree: 4\n()\n(2 4)(3)\n")
        assert gens.gens == ((0, 1, 2, 3), (0, 3, 2, 1))

    def test_rejects_non_bijection(self):
        with pytest.raises(PermutationError):
            GeneratorSet(3, ((0, 0, 1),))
        with pytest.raises(PermutationError):
            GeneratorSet(3, ((0, 1, 3),))
        with pytest.raises(PermutationError):
            parse_generators("degree: 3\nimg: 0,0,1\n")
        with pytest.raises(PermutationError):
            parse_generators("degree: 3\n(1 2)(2 3)\n")

    def test_degree_mismatch(self):
        with pytest.raises(PermutationError):
            GeneratorSet(3, ((0, 1),))
        with pytest.raises(PermutationError):
            GeneratorSet(2, ((0, 1, 2),))
        with pytest.raises(PermutationError):
            parse_generators("degree: 2\nimg: 0,1,2\n")

    def test_generators_are_stored_as_tuples(self):
        gens = GeneratorSet(3, [[1, 2, 0], range(3)])
        assert gens.gens == ((1, 2, 0), (0, 1, 2))

    def test_degree_above_the_point_cap(self):
        # Schreier-Sims holds each generator as a 256-byte table
        assert len(GeneratorSet(128, [range(128)]).gens) == 1
        for degree in (129, 256, 10**6):
            with pytest.raises(PermutationError, match=f"degree {degree} exceeds the 128-point cap"):
                GeneratorSet(degree, ())


class TestOrbit:
    def test_identity_only(self):
        assert orbit([tuple(range(10))], [5]).tolist() == [5]

    def test_pgl29_point_orbit_is_whole_line(self):
        gens = projective_group_generators("PGL", 3, 2)
        assert orbit(gens.gens, [0]).tolist() == list(range(10))

    def test_pgl29_base_block_orbit_matches_block_count(self):
        # b = v(v-1)(v-2) / (k(k-1)(k-2)) with v=10, k=4
        want = 10 * 9 * 8 // (4 * 3 * 2)
        gens = projective_group_generators("PGL", 3, 2)
        base = (0, 1, 2, 9)  # GF(3) u {infinity} inside the line over GF(9)
        blocks = _block_orbit(gens.gens, base)
        assert len(blocks) == want == 30

    def test_several_seeds_give_the_union_of_their_orbits(self):
        gens = affine_group_generators("AGL_1", 3).gens
        zero_fixing = [g for g in gens if g[0] == 0]
        assert orbit(zero_fixing, [0]).tolist() == [0]
        assert orbit(zero_fixing, [0, 1]).tolist() == list(range(8))
        assert orbit([], [3, 1]).tolist() == [1, 3]

    def test_one_bitmap_for_several_orbits(self):
        # the caller's bitmap is marked in place, and its set states are
        # other orbits': they are left out of the result
        table = np.array([[1, 0, 3, 2, 5, 4]])
        seen = np.zeros(6, dtype=bool)
        assert orbit(table, [2], seen).tolist() == [2, 3]
        assert seen.tolist() == [False, False, True, True, False, False]
        assert orbit(table, [3, 0, 0], seen).tolist() == [0, 1]
        assert orbit(table, [3], seen).tolist() == []
        assert seen.tolist() == [True] * 4 + [False] * 2

    def test_no_generators_as_an_empty_table(self):
        empty = np.zeros((0, 8), dtype=np.int32)
        assert orbit(empty, [6, 2, 6]).tolist() == [2, 6]
        assert orbit(empty, []).tolist() == []

    def test_unsorted_and_repeated_seeds(self):
        # the sorted distinct closure, whatever the order of the seeds
        rng = random.Random(11)
        for n in (1, 6, 13, 40):
            table = np.array([rng.sample(range(n), n) for _ in range(2)])
            for _ in range(25):
                seeds = [rng.randrange(n) for _ in range(rng.randrange(1, 7))]
                reached = set(seeds)
                frontier = list(reached)
                while frontier:
                    frontier = [int(g[s]) for g in table for s in frontier]
                    frontier = [s for s in frontier if s not in reached]
                    reached.update(frontier)
                assert orbit(table, seeds).tolist() == sorted(reached)
        assert orbit([], [5, 0, 5, 3]).tolist() == [0, 3, 5]

    def test_orbits_of_one_table(self):
        # one generator over 6 states: a 3-cycle, a fixed state, a 2-cycle
        table = np.array([[1, 2, 0, 3, 5, 4]])
        assert orbit(table, [2]).tolist() == [0, 1, 2]
        assert orbit(table, [4, 3]).tolist() == [3, 4, 5]


class TestGroupOrder:
    def test_psl27(self):
        gens = projective_group_generators("PSL", 7, 1)
        want = 8 * 7 * 6 // 2
        assert group_order(gens).order == want == 168

    def test_empty_generators(self):
        summary = group_order(GeneratorSet(10, ()))
        assert summary.order == 1
        assert summary.base == ()
        assert summary.stabilizer_orders == (1,)

    def test_agammal132(self):
        gens = affine_group_generators("AGammaL_1", 5)
        assert group_order(gens).order == 32 * 31 * 5 == 4960

    def test_symmetric_group(self):
        tr = (1, 0, 2, 3, 4)
        cyc = (1, 2, 3, 4, 0)
        assert group_order(GeneratorSet(5, (tr, cyc))).order == 120

    def test_stabilizer_chain_divides(self):
        summary = group_order(affine_group_generators("AGL_d_2", 4))
        chain = summary.stabilizer_orders
        assert chain[0] == summary.order and chain[-1] == 1
        for a, b in zip(chain, chain[1:]):
            assert a % b == 0

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_orbit_stabilizer(self, seed):
        for gens in (
            affine_group_generators("AGL_d_2", 3),
            projective_group_generators("PSL", 3, 2),
            affine_group_generators("AGammaL_1", 3),
        ):
            total = group_order(gens).order
            stab = group_order(gens, base_prefix=(seed,)).stabilizer_orders[1]
            assert len(orbit(gens.gens, [seed])) * stab == total


class TestBlockAction:
    def test_identity(self):
        design = construct_boolean_affine(3)
        induced = block_action(design, tuple(range(8)))
        assert induced.tolist() == list(range(design.b))
        assert induced.dtype == np.int32 and not induced.flags.writeable

    def test_translation_preserves_blocks(self):
        design = construct_boolean_affine(3)
        g = tuple(x ^ 1 for x in range(8))
        induced = block_action(design, g)
        assert sorted(induced.tolist()) == list(range(design.b))
        assert induced.dtype == np.int32 and not induced.flags.writeable

    def test_transposition_is_rejected_with_witness(self):
        design = construct_boolean_affine(3)
        swap = (1, 0, 2, 3, 4, 5, 6, 7)
        with pytest.raises(SetNotPreserved) as err:
            block_action(design, swap)
        witness = err.value.witness
        image = [swap[x] for x in witness]
        xor = 0
        for x in image:
            xor ^= x
        assert xor != 0  # the image 4-set is not a plane

    def test_functoriality_on_random_words(self):
        design = construct_boolean_affine(3)
        gens = affine_group_generators("AGL_d_2", 3).gens
        rng = random.Random(7)
        for _ in range(25):
            word = [rng.choice(gens) for _ in range(rng.randint(1, 8))]
            product = word[0]
            for g in word[1:]:
                product = compose(product, g)
            induced = block_action(design, word[0]).tolist()
            for g in word[1:]:
                induced = compose(induced, block_action(design, g).tolist())
            assert block_action(design, product).tolist() == list(induced)

    @pytest.mark.parametrize(
        "design,g",
        [
            (construct_netto_extension(19), projective_group_generators("PSL", 19, 1).gens[0]),
            (Design(200, 3, [(0, 1, 2, 3), (0, 1, 4, 199), (5, 6, 7, 8)]), tuple(range(200))),
            (Design(6, 2, [(0, 1), (2, 3), (4, 5)]), (5, 4, 3, 2, 1, 0)),
        ],
        ids=["ranked", "200-points", "blocks-of-2"],
    )
    def test_induced_permutation_is_a_read_only_int32_array(self, design, g):
        induced = block_action(design, g)
        assert induced.dtype == np.int32 and induced.shape == (design.b,)
        assert not induced.flags.writeable
        images = [design.block_index([g[x] for x in block]) for block in design.blocks]
        assert induced.tolist() == images


class TestFlagTransitivity:
    def test_agl18_is_regular_on_flags(self):
        design = construct_boolean_affine(3)
        gens = affine_group_generators("AGL_1", 3)
        report = is_flag_transitive(design, gens)
        assert report.flag_transitive
        assert report.flag_orbit_size == report.flag_count == 56
        assert group_order(gens).order == 56

    def test_psl29_splits_spherical_blocks(self):
        design = construct_spherical(3, 2)
        report = is_flag_transitive(design, projective_group_generators("PSL", 3, 2))
        assert not report.flag_transitive
        assert report.block_orbit_count == 2
        assert report.block_orbit_sizes == (15, 15)
        assert report.point_2_transitive  # PSL(2,9) is still 2-transitive

    def test_trivial_group_is_not_transitive(self):
        design = construct_boolean_affine(3)
        report = is_flag_transitive(design, GeneratorSet(8, ()))
        assert not report.flag_transitive
        assert report.flag_orbit_size == 1
        assert report.block_orbit_count == design.b
        assert report.point_pair_orbit_count == 8 * 7

    def test_non_automorphism_propagates(self):
        design = construct_boolean_affine(3)
        swap = (1, 0, 2, 3, 4, 5, 6, 7)
        with pytest.raises(SetNotPreserved):
            is_flag_transitive(design, GeneratorSet(8, (swap,)))


class TestAutomorphismGroup:
    def test_affine3(self):
        gl32 = (8 - 1) * (8 - 2) * (8 - 4)
        want = 8 * gl32  # |AGL(3,2)|
        gens = automorphism_group(construct_boolean_affine(3))
        assert group_order(gens).order == want == 1344

    def test_spherical32(self):
        # PGammaL(2,9): twice |PGL(2,9)| = 720
        gens = automorphism_group(construct_spherical(3, 2))
        assert group_order(gens).order == 1440

    def test_budget_bound(self):
        with pytest.raises(SearchBudgetExceeded):
            automorphism_group(construct_boolean_affine(7))

    def test_128_points_with_the_cap_lifted(self, monkeypatch):
        # the search runs on the ranked 3-subset table, built up to 128
        # points; only the cap keeps it to 64
        monkeypatch.setattr(permgrp, "AUT_SEARCH_MAX_POINTS", 128)
        gens = automorphism_group(construct_netto_extension(127))
        assert group_order(gens).order == 128 * 127 * 126 // 2 == 1024128  # |PSigmaL(2,127)|

    def test_settle_keeps_only_automorphisms(self):
        # a complete closure is settled by `block_action`: no catalogue
        # search reaches one that is not an automorphism, so both are set
        # by hand here
        design = construct_spherical(3, 2)
        searcher = permgrp._AutSearch(design)
        automorphism = projective_group_generators("PGL", 3, 2).gens[0]
        swap = (1, 0) + tuple(range(2, 10))
        for images, want in ((automorphism, automorphism), (swap, None)):
            searcher.cimg = list(images)
            assert searcher._settle() == want
        assert searcher.settled == 2

    def test_deterministic(self):
        design = construct_spherical(3, 2)
        first = automorphism_group(design)
        second = automorphism_group(design)
        assert first.gens == second.gens

    def test_found_generators_are_automorphisms(self):
        design = construct_boolean_affine(4)
        for g in automorphism_group(design).gens:
            block_action(design, g)  # raises if not an automorphism

    @pytest.mark.parametrize(
        "blocks",
        [
            [(0, 1), (2, 3), (4, 5)],  # |Aut| = 48, not the 720 of every bijection
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            [(0,), (1,)],
        ],
        ids=["matching", "path", "points"],
    )
    def test_blocks_below_three_points_rejected(self, blocks):
        with pytest.raises(DesignError, match="at least 3 points"):
            automorphism_group(Design(6, 1, blocks))

    def test_partial_triple_system(self):
        # two triples through 0 on 7 points: swap or fix the triples,
        # and the pairs inside them, and S2 on the points 5 and 6
        design = Design(7, 2, [(0, 1, 2), (0, 3, 4)])
        assert group_order(automorphism_group(design)).order == 16


class TestGeneratorFiles:
    def test_round_trip(self):
        gens = projective_group_generators("PSL", 3, 2)
        text = format_generators(gens, comment="psl(2,9)")
        again = parse_generators(text)
        assert again.degree == gens.degree
        assert again.gens == gens.gens

    def test_cycle_notation_is_one_based(self):
        text = "degree: 6\n(1 2 3)(5 6)\n"
        gens = parse_generators(text)
        assert gens.gens[0] == (1, 2, 0, 3, 5, 4)

    def test_comments_and_blank_lines(self):
        text = "# header\n\ndegree: 3\nimg: 1,2,0  # rotation\n"
        gens = parse_generators(text)
        assert gens.gens[0] == (1, 2, 0)

    def test_missing_degree_rejected(self):
        with pytest.raises(PermutationError):
            parse_generators("img: 0,1\n")

    def test_wrong_length_rejected(self):
        with pytest.raises(PermutationError):
            parse_generators("degree: 3\nimg: 0,1\n")

    def test_cycle_out_of_range_rejected(self):
        with pytest.raises(PermutationError):
            parse_generators("degree: 3\n(1 4)\n")

    def test_junk_rejected(self):
        with pytest.raises(PermutationError):
            parse_generators("degree: 3\nwhat\n")

    @pytest.mark.parametrize("degree", ["129", "1000000000", "9" * 5000])
    def test_degree_above_the_point_cap_rejected(self, degree):
        # each header is rejected before any image list is built
        with pytest.raises(PermutationError, match="128-point cap"):
            parse_generators(f"degree: {degree}\n(1 2)\n")

    def test_degree_at_the_point_cap(self):
        assert parse_generators("degree: 0128\n(1 2)\n").degree == 128

    @pytest.mark.parametrize("line", ["img: 0,1,x", "(1 x)", "img: 0,1,2.0"])
    def test_non_integer_entries_rejected(self, line):
        with pytest.raises(PermutationError):
            parse_generators(f"degree: 3\n{line}\n")
