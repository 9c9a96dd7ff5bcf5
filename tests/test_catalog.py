"""Family constructors, group generator tables, the classification map."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from steiner3 import catalog
from steiner3.catalog import (
    CLASSIFY_MAX_BITS,
    CatalogError,
    GolayConstructionError,
    ProjectiveLine,
    affine_group_generators,
    classify,
    construct_boolean_affine,
    construct_netto_extension,
    construct_octad_design,
    construct_spherical,
    construct_witt_22,
    lexicode_codewords,
    load_a7_generators,
    projective_group_generators,
)
from steiner3.design import derived_design, params_of, verify_steiner
from steiner3.gf import FieldContext, prime_power
from steiner3.permgrp import (
    block_action,
    group_order,
    is_flag_transitive,
)


def block_count(v: int, k: int) -> int:
    return v * (v - 1) * (v - 2) // (k * (k - 1) * (k - 2))


class TestBooleanAffine:
    @pytest.mark.parametrize("d,b", [(3, 14), (4, 140), (5, 1240)])
    def test_counts(self, d, b):
        design = construct_boolean_affine(d)
        assert design.v == 1 << d
        assert design.b == b == block_count(1 << d, 4)

    def test_every_block_sums_to_zero(self):
        for block in construct_boolean_affine(4).blocks:
            x = 0
            for p in block:
                x ^= p
            assert x == 0

    def test_verifies(self):
        assert verify_steiner(construct_boolean_affine(3)).ok

    @pytest.mark.parametrize("d", [2, 8])
    def test_range_rejected(self, d):
        with pytest.raises(CatalogError):
            construct_boolean_affine(d)


class TestSpherical:
    @pytest.mark.parametrize("q,e,b", [(3, 2, 30), (3, 3, 819), (4, 2, 68), (5, 2, 130)])
    def test_counts(self, q, e, b):
        design = construct_spherical(q, e)
        assert design.v == q**e + 1
        assert design.k == q + 1
        assert design.b == b == block_count(q**e + 1, q + 1)

    def test_verifies(self):
        assert verify_steiner(construct_spherical(3, 2)).ok
        assert verify_steiner(construct_spherical(4, 2)).ok

    def test_contains_the_subline(self):
        design = construct_spherical(3, 2)
        ctx = FieldContext(3, 2)
        base = tuple(sorted(ctx.subfield_indices(3) + [9]))
        assert design.block_index(base) >= 0

    def test_base_block_stabilized_by_subline_maps(self):
        # x -> ax + b over the subfield, and the inversion, fix the base
        # block setwise
        design = construct_spherical(3, 2)
        ctx = FieldContext(3, 2)
        inf = 9
        sub = ctx.subfield_indices(3)
        base_idx = design.block_index(tuple(sorted(sub + [inf])))
        maps = []
        for a in sub:
            if a == 0:
                continue
            for c in sub:
                images = [ctx.add(ctx.mul(a, x), c) for x in range(9)] + [inf]
                maps.append(tuple(images))
        inversion = [inf] + [ctx.inv(x) for x in range(1, 9)] + [0]
        maps.append(tuple(inversion))
        for g in maps:
            induced = block_action(design, g)
            assert induced.tolist()[base_idx] == base_idx
            assert induced.dtype == np.int32 and not induced.flags.writeable

    @pytest.mark.parametrize("q,e", [(2, 2), (6, 2), (3, 1), (13, 2)])
    def test_bad_parameters_rejected(self, q, e):
        with pytest.raises(CatalogError):
            construct_spherical(q, e)


class TestNetto:
    @pytest.mark.parametrize("q,b", [(7, 14), (19, 285), (31, 1240), (43, 3311)])
    def test_counts(self, q, b):
        design = construct_netto_extension(q)
        assert design.v == q + 1
        assert design.k == 4
        assert design.b == b == block_count(q + 1, 4)

    def test_verifies(self):
        assert verify_steiner(construct_netto_extension(7)).ok

    def test_netto7_matches_affine3_parameters(self):
        a = params_of(construct_boolean_affine(3))
        n = params_of(construct_netto_extension(7))
        assert (a.v, a.k, a.b, a.r, a.lambda2) == (n.v, n.k, n.b, n.r, n.lambda2)

    def test_base_block_contains_sixth_root(self):
        design = construct_netto_extension(19)
        eps = FieldContext(19, 1).primitive_sixth_root()
        assert design.block_index(tuple(sorted((0, 1, eps, 19)))) >= 0

    @pytest.mark.parametrize("q", [6, 13, 11, 127 + 12])
    def test_bad_parameters_rejected(self, q):
        with pytest.raises(CatalogError):
            construct_netto_extension(q)


class TestWittPipeline:
    def test_codeword_count(self):
        words = lexicode_codewords()
        assert len(words) == 4096
        assert len(set(words)) == 4096

    def test_weight_distribution(self):
        from collections import Counter

        weights = Counter(w.bit_count() for w in lexicode_codewords())
        assert weights == Counter({12: 2576, 8: 759, 16: 759, 0: 1, 24: 1})

    def test_octad_design_is_a_steiner_5_design(self):
        octads = construct_octad_design()
        assert (octads.v, octads.k, octads.b) == (24, 8, 759)
        p = params_of(octads)
        assert (p.t, p.r, p.lambda2) == (5, 253, 77)
        assert verify_steiner(octads, 5).ok

    def test_derivation_counts(self):
        octads = construct_octad_design()
        first = derived_design(octads, 23)
        assert first.b == 253
        second = derived_design(first, 22)
        assert second.b == 77

    def test_witt_parameters(self):
        p = params_of(construct_witt_22())
        assert (p.t, p.v, p.k, p.b, p.r, p.lambda2) == (3, 22, 6, 77, 21, 5)

    def test_octads_meet_evenly(self):
        # distinct octads share 0, 2 or 4 points (the code is self-dual)
        blocks = [set(b) for b in construct_octad_design().blocks]
        seen = set()
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                seen.add(len(a & b))
        assert seen == {0, 2, 4}

    def test_witt_blocks_meet_in_0_or_2_points(self):
        blocks = [set(b) for b in construct_witt_22().blocks]
        seen = set()
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                seen.add(len(a & b))
        assert seen == {0, 2}

    def test_wrong_counts_abort(self, monkeypatch):
        import steiner3.catalog as catalog

        words = lexicode_codewords()
        monkeypatch.setattr(catalog, "lexicode_codewords", lambda: words[:4000])
        with pytest.raises(GolayConstructionError):
            catalog.construct_octad_design()
        # octad miscount with the right total count
        bad = [w for w in words if w.bit_count() != 8] + [0] * 759
        monkeypatch.setattr(catalog, "lexicode_codewords", lambda: bad)
        with pytest.raises(GolayConstructionError):
            catalog.construct_octad_design()


class TestGroupGenerators:
    @pytest.mark.parametrize(
        "kind,d,order",
        [
            ("AGL_d_2", 3, 1344),
            ("AGL_d_2", 4, 322560),
            ("AGL_1", 3, 56),
            ("AGammaL_1", 3, 168),
            ("AGammaL_1", 5, 4960),
            ("T_A7", 4, 40320),
        ],
    )
    def test_affine_orders(self, kind, d, order):
        assert group_order(affine_group_generators(kind, d)).order == order

    @pytest.mark.parametrize(
        "kind,q,e,order",
        [
            ("PGL", 3, 2, 720),
            ("PSL", 3, 2, 360),
            ("PGammaL", 3, 2, 1440),
            ("PSigmaL", 3, 2, 720),
            ("PSL", 3, 3, 9828),
            ("PSL", 19, 1, 3420),
            ("PSL", 7, 1, 168),
        ],
    )
    def test_projective_orders(self, kind, q, e, order):
        assert group_order(projective_group_generators(kind, q, e)).order == order

    def test_even_q_psl_equals_pgl(self):
        pgl = group_order(projective_group_generators("PGL", 4, 2)).order
        psl = group_order(projective_group_generators("PSL", 4, 2)).order
        assert pgl == psl == 17 * 16 * 15

    def test_a7_data_file(self):
        gens = load_a7_generators()
        assert gens.degree == 16
        assert all(g[0] == 0 for g in gens.gens)
        assert group_order(gens).order == 2520
        from steiner3.permgrp import orbit

        # transitive on nonzero vectors
        assert orbit(gens.gens, [1]).tolist() == list(range(1, 16))

    def test_a7_data_file_is_what_the_script_writes(self, monkeypatch):
        # the script puts the repository's src on sys.path as it loads
        monkeypatch.setattr(sys, "path", list(sys.path))
        script = Path(__file__).resolve().parent.parent / "scripts" / "find_a7_generators.py"
        spec = importlib.util.spec_from_file_location("find_a7_generators", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.search() == (load_a7_generators().gens, 17)

    def test_t_a7_needs_dimension_4(self):
        with pytest.raises(CatalogError):
            affine_group_generators("T_A7", 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(CatalogError):
            affine_group_generators("GL", 3)
        with pytest.raises(CatalogError):
            projective_group_generators("PSU", 3, 2)


MERSENNE_61 = 2**61 - 1  # a prime = 7 mod 12: trial division takes hours


@pytest.fixture
def small_factoring_only(monkeypatch):
    """Fail at once if the projective families factor any q above 127."""

    def guarded(q):
        assert q <= 127, f"prime_power({q}) called"
        return prime_power(q)

    monkeypatch.setattr(catalog, "prime_power", guarded)


class TestProjectiveLineGate:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: construct_spherical(MERSENNE_61, 2),
            lambda: construct_netto_extension(MERSENNE_61),
            lambda: projective_group_generators("PSL", MERSENNE_61, 1),
            lambda: construct_spherical(3, 10000),
            lambda: projective_group_generators("PGL", 3, 10000),
        ],
        ids=["spherical-m61", "netto-m61", "psl-m61", "spherical-e10000", "pgl-e10000"],
    )
    def test_bound_before_factoring_or_power(self, build, small_factoring_only):
        with pytest.raises(CatalogError, match="exceeds the 128 bound"):
            build()

    def test_bound_agrees_with_the_plain_power(self, small_factoring_only):
        for q in range(-3, 300):
            for e in range(-1, 12):
                valid = e >= 1 and prime_power(q) is not None and q**e + 1 <= 128
                if valid:
                    assert projective_group_generators("PGL", q, e).degree == q**e + 1
                else:
                    with pytest.raises(CatalogError):
                        projective_group_generators("PGL", q, e)

    def test_line_built_on_a_field_too_large(self):
        # GF(128) plus infinity is 129 points
        with pytest.raises(CatalogError, match="projective line on 129 points exceeds"):
            ProjectiveLine(FieldContext(2, 7))

    def test_scaling_by_zero(self):
        line = ProjectiveLine(FieldContext(3, 2))
        assert line.scaling(1) == tuple(range(10))
        with pytest.raises(CatalogError, match="scaling factor must be nonzero"):
            line.scaling(0)

    @pytest.mark.parametrize(
        "build",
        [lambda: construct_spherical(3, 2), lambda: construct_netto_extension(19)],
        ids=["spherical", "netto"],
    )
    def test_one_field_per_construction(self, build, monkeypatch):
        built = []

        def counted(p, d):
            built.append((p, d))
            return FieldContext(p, d)

        monkeypatch.setattr(catalog, "FieldContext", counted)
        build()
        assert len(built) == 1


class TestTransitivitySweeps:
    def test_every_catalogue_pair_is_flag_transitive(self, flag_transitive_pairs):
        for label, design, gens in flag_transitive_pairs:
            report = is_flag_transitive(design, gens)
            assert report.flag_transitive, label
            assert report.flag_orbit_size == design.b * design.k, label

    def test_psl_parity_law_on_spherical_designs(self, catalogue):
        # e odd: flag-transitive; e even (odd q): two block orbits
        ok = is_flag_transitive(
            catalogue[("spherical", 3, 3)], projective_group_generators("PSL", 3, 3)
        )
        assert ok.flag_transitive
        split = is_flag_transitive(
            catalogue[("spherical", 3, 2)], projective_group_generators("PSL", 3, 2)
        )
        assert not split.flag_transitive
        assert split.block_orbit_sizes == (15, 15)
        split25 = is_flag_transitive(
            catalogue[("spherical", 5, 2)], projective_group_generators("PSL", 5, 2)
        )
        assert not split25.flag_transitive
        assert split25.block_orbit_count == 2

    def test_block_transitive_implies_point_transitive(self, flag_transitive_pairs, catalogue):
        reports = [
            is_flag_transitive(design, gens)
            for _, design, gens in flag_transitive_pairs
        ]
        reports.append(
            is_flag_transitive(
                catalogue[("spherical", 3, 2)],
                projective_group_generators("PSL", 3, 2),
            )
        )
        for report in reports:
            if report.block_transitive:
                assert report.point_transitive
            if report.flag_transitive:
                assert report.point_2_transitive


class TestFullRangeConstruction:
    """Every in-bounds family member beyond the core cases verifies."""

    @pytest.mark.parametrize("d", [6, 7])
    def test_affine_large(self, d):
        design = construct_boolean_affine(d)
        assert verify_steiner(design).ok
        assert design.b == block_count(1 << d, 4)

    @pytest.mark.parametrize(
        "q,e", [(3, 4), (4, 3), (5, 3), (7, 2), (8, 2), (9, 2), (11, 2)]
    )
    def test_spherical_full_range(self, q, e):
        design = construct_spherical(q, e)
        assert verify_steiner(design).ok
        assert design.b == block_count(q**e + 1, q + 1)

    @pytest.mark.parametrize("q", [67, 79, 103, 127])
    def test_netto_full_range(self, q):
        design = construct_netto_extension(q)
        assert verify_steiner(design).ok
        assert design.b == block_count(q + 1, 4)


class TestCatalogueWideInvariants:
    def test_cameron_equality_exactly_at_8_4_and_22_6(self, catalogue):
        from steiner3.sieve import cameron_check

        for design in catalogue.values():
            result = cameron_check(3, design.k, design.v)
            assert result.status != "violated"
            if (design.v, design.k) in ((8, 4), (22, 6)):
                assert result.status == "equality" and result.listed
            else:
                assert result.status == "strict"

    def test_block_sizes_within_bound(self, catalogue):
        from steiner3.sieve import blocksize_bound

        for design in catalogue.values():
            assert design.k <= blocksize_bound(design.v)

    def test_full_automorphism_groups_match_classification_bounds(self, catalogue):
        # Aut(D) is itself flag-transitive (it contains a flag-transitive
        # subgroup), so its order is pinned by the classification's
        # maximal groups.  netto(7) carries the same design as affine d=3.
        from steiner3.permgrp import automorphism_group, group_order

        expectations = (
            (("netto", 7), 1344),        # |AGL(3,2)|
            (("netto", 19), 3420),       # |PSigmaL(2,19)| = |PSL(2,19)|
            (("spherical", 4, 2), 16320),  # |PGammaL(2,16)|
            (("affine", 4), 322560),     # |AGL(4,2)|
        )
        for key, want in expectations:
            gens = automorphism_group(catalogue[key])
            assert group_order(gens).order == want, key

    def test_derivations_verify_at_every_point(self, catalogue):
        # all points for v <= 32, a five-point sample beyond that
        for design in catalogue.values():
            v = design.v
            if v <= 32:
                points = range(v)
            else:
                points = sorted({0, v // 4, v // 2, 3 * v // 4, v - 2})
            for x in points:
                der = derived_design(design, x)
                p = params_of(der)
                assert (p.t, p.v, p.k, p.lam) == (2, v - 1, design.k - 1, 1)
                assert verify_steiner(der, 2).ok


class TestClassify:
    def test_8_4_has_two_rows(self):
        rows = classify(8, 4)
        assert [r.family for r in rows] == ["affine", "netto"]
        assert rows[0].params == (("d", 3),)
        assert rows[1].params == (("q", 7),)

    def test_22_6_is_witt_only(self):
        rows = classify(22, 6)
        assert [r.family for r in rows] == ["witt"]

    def test_12_4_is_empty(self):
        assert classify(12, 4) == []

    def test_10_4_is_spherical(self):
        rows = classify(10, 4)
        assert [r.family for r in rows] == ["spherical"]
        assert rows[0].params == (("q", 3), ("e", 2))
        names = [name for name, _ in rows[0].groups]
        assert not any("PSL" in n and "odd" in n for n in names)  # e = 2 is even

    def test_28_4_lists_psl_for_odd_e(self):
        rows = classify(28, 4)
        assert [r.family for r in rows] == ["spherical"]
        assert any("PSL" in name for name, _ in rows[0].groups)

    def test_16_4_is_affine_only(self):
        rows = classify(16, 4)
        assert [r.family for r in rows] == ["affine"]
        assert any("A7" in name for name, _ in rows[0].groups)

    def test_even_q_spherical_reported_once(self):
        rows = classify(17, 5)  # q = 4, e = 2
        assert [r.family for r in rows] == ["spherical"]
        assert len(rows[0].groups) == 1  # PSL = PGL for even q

    def test_65_5_spherical_cube(self):
        rows = classify(65, 5)  # 64 = 4^3, so q = 4, e = 3; even q: no PSL row
        assert [r.family for r in rows] == ["spherical"]
        assert rows[0].params == (("q", 4), ("e", 3))

    def test_trivial_parameters_rejected(self):
        with pytest.raises(CatalogError):
            classify(8, 8)
        with pytest.raises(CatalogError):
            classify(8, 3)

    def test_v_at_the_factoring_cap(self):
        v = 1 << CLASSIFY_MAX_BITS
        assert [r.params for r in classify(v, 4)] == [(("d", CLASSIFY_MAX_BITS),)]
        # k - 1 = 2^40 - 87 is prime: the slowest trial division below the cap
        assert classify(v, v - 86) == []
