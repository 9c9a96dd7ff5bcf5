"""Acceptance suite: one test per criterion, exact values, stated budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All equalities are exact; the only tolerances are the two
wall-clock budgets, asserted where stated.
"""

import time

import pytest

from steiner3.catalog import (
    GolayConstructionError,
    affine_group_generators,
    construct_boolean_affine,
    construct_netto_extension,
    construct_octad_design,
    construct_spherical,
    construct_witt_22,
    is_affine_line_system,
    lexicode_codewords,
    load_a7_generators,
    projective_group_generators,
)
from steiner3.design import (
    derived_design,
    params_of,
    verify_steiner,
)
from steiner3.gf import FieldContext, prime_power
from steiner3.permgrp import (
    automorphism_group,
    group_order,
    is_flag_transitive,
    stabilizer_identities,
)
from steiner3.sieve import (
    admissible_parameters,
    cyclotomic_eval,
    division_property,
    ramanujan_nagell,
    ramanujan_nagell_block_sizes,
    semilinear_divisibility,
    zsigmondy_ppd,
)

SPHERICAL_CASES = ((3, 2), (3, 3), (4, 2), (5, 2))
NETTO_CASES = (7, 19, 31, 43)


def _announce(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {message}")


def test_criterion_1_family_construction_and_axioms():
    start = time.monotonic()
    built = []
    for d in (3, 4, 5):
        design = construct_boolean_affine(d)
        v = 1 << d
        built.append((design, (3, v, 4, v * (v - 1) * (v - 2) // 24)))
    for q, e in SPHERICAL_CASES:
        design = construct_spherical(q, e)
        v, k = q**e + 1, q + 1
        b = v * (v - 1) * (v - 2) // (k * (k - 1) * (k - 2))
        built.append((design, (3, v, k, b)))
    for q in NETTO_CASES:
        design = construct_netto_extension(q)
        v = q + 1
        built.append((design, (3, v, 4, v * (v - 1) * (v - 2) // 24)))
    built.append((construct_witt_22(), (3, 22, 6, 77)))

    for design, (t, v, k, b) in built:
        p = params_of(design)
        assert (p.t, p.v, p.k, p.b) == (t, v, k, b)
        assert p.r == b * k // v
        assert p.lambda2 == (v - 2) // (k - 2)
        assert verify_steiner(design).ok

    witt = params_of(built[-1][0])
    assert (witt.b, witt.r, witt.lambda2) == (77, 21, 5)
    spherical33 = params_of(built[4][0])
    assert spherical33.b == 819

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"construction took {elapsed:.1f}s, budget is 10s"
    _announce(1, f"12 designs constructed and verified in {elapsed:.2f}s")


def test_criterion_2_flag_transitivity_if_direction(catalogue):
    start = time.monotonic()
    pairs = [
        (catalogue[("affine", 3)], affine_group_generators("AGL_d_2", 3)),
        (catalogue[("affine", 3)], affine_group_generators("AGL_1", 3)),
        (catalogue[("affine", 3)], affine_group_generators("AGammaL_1", 3)),
        (catalogue[("affine", 4)], affine_group_generators("T_A7", 4)),
        (catalogue[("affine", 5)], affine_group_generators("AGammaL_1", 5)),
        (catalogue[("affine", 5)], affine_group_generators("AGL_d_2", 5)),
    ]
    for q, e in SPHERICAL_CASES:
        pairs.append(
            (catalogue[("spherical", q, e)], projective_group_generators("PGL", q, e))
        )
    pairs.append(
        (catalogue[("spherical", 3, 3)], projective_group_generators("PSL", 3, 3))
    )
    for q in NETTO_CASES:
        pairs.append((catalogue[("netto", q)], projective_group_generators("PSL", q, 1)))
        pairs.append(
            (catalogue[("netto", q)], projective_group_generators("PSigmaL", q, 1))
        )
    pairs.append((catalogue[("witt",)], automorphism_group(catalogue[("witt",)])))

    for design, gens in pairs:
        report = is_flag_transitive(design, gens)
        assert report.flag_transitive
        assert report.flag_orbit_size == design.b * design.k

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"flag checks took {elapsed:.1f}s, budget is 60s"
    _announce(2, f"{len(pairs)} group/design pairs flag-transitive in {elapsed:.2f}s")


def test_criterion_3_psl29_negative_result(catalogue, tmp_path):
    report = is_flag_transitive(
        catalogue[("spherical", 3, 2)], projective_group_generators("PSL", 3, 2)
    )
    assert not report.flag_transitive
    assert report.block_orbit_count == 2
    assert report.block_orbit_sizes == (15, 15)

    from steiner3.cli import main
    from steiner3.design import to_json
    from steiner3.permgrp import format_generators

    design_file = tmp_path / "spherical32.json"
    design_file.write_text(to_json(catalogue[("spherical", 3, 2)]))
    gens_file = tmp_path / "psl29.gens"
    gens_file.write_text(
        format_generators(projective_group_generators("PSL", 3, 2))
    )
    exit_code = main(["flagcheck", str(design_file), "--gens", str(gens_file)])
    assert exit_code == 1
    _announce(3, "PSL(2,9) splits the 30 blocks into two orbits of 15; flagcheck exits 1")


def test_criterion_4_bsgs_orders_match_closed_forms(catalogue):
    expectations = (
        (projective_group_generators("PGL", 3, 2), 720),
        (projective_group_generators("PSL", 3, 3), 9828),
        (projective_group_generators("PSL", 19, 1), 3420),
        (affine_group_generators("AGammaL_1", 5), 4960),
        (affine_group_generators("AGL_d_2", 3), 1344),
        (automorphism_group(catalogue[("witt",)]), 887040),
        (load_a7_generators(), 2520),
    )
    for gens, want in expectations:
        assert group_order(gens).order == want
    _announce(4, "seven exact group orders, 720 through 887040")


def test_criterion_5_stabilizer_identity_suite(flag_transitive_pairs):
    checked = 0
    for label, design, gens in flag_transitive_pairs:
        report = is_flag_transitive(design, gens)
        assert report.point_pair_orbit_count == 1, label
        identities = stabilizer_identities(design, gens)
        params = params_of(design)
        assert division_property(params.r, identities.g_x), label
        assert identities.block_identity and identities.point_identity, label
        checked += 1
        if label == "Aut on witt":
            assert identities.g_xy == 1920 and identities.g_xb == 1920
            assert design.v - 2 == (design.k - 1) * (design.k - 2) * 1920 // 1920
    assert checked == 20
    _announce(5, "2-transitivity, division property and both identities on all 20 pairs")


def test_criterion_6_sieve_reproduction():
    admissible_16 = [
        r.k for r in admissible_parameters(16, 16) if r.admissible
    ]
    assert admissible_16 == [4]

    assert ramanujan_nagell(63) == [(5, 3), (7, 5), (9, 6), (23, 9)]
    assert ramanujan_nagell_block_sizes(63) == [(2, 13)]

    assert semilinear_divisibility(3, 4) is True
    assert semilinear_divisibility(5, 4) is True
    assert semilinear_divisibility(7, 4) is False

    for q in (2, 3, 5):
        for d in range(1, 41):
            product = 1
            for e in range(1, d + 1):
                if d % e == 0:
                    product *= cyclotomic_eval(e, q).phi
            assert product == q**d - 1

    assert zsigmondy_ppd(2, 6).primitive_primes == ()
    _announce(6, "parameter sieve, Diophantine sweep, divisibility and cyclotomic identities")


def test_criterion_7_derived_design_structure(catalogue):
    for q, e in ((3, 2), (3, 3), (4, 2)):
        design = catalogue[("spherical", q, e)]
        p, j = prime_power(q)
        ctx = FieldContext(p, j * e)
        derived = derived_design(design, design.v - 1)  # infinity is the last id
        assert is_affine_line_system(derived, ctx, q), (q, e)

    for q in (19, 31):
        design = catalogue[("netto", q)]
        derived = derived_design(design, design.v - 1)
        p = params_of(derived)
        assert (p.t, p.v, p.k, p.lam) == (2, q, 3, 1)
        assert verify_steiner(derived, 2).ok
        assert not is_affine_line_system(derived, FieldContext(q, 1), 3), q

    sampled = 0
    for key in (("spherical", 3, 2), ("spherical", 3, 3), ("spherical", 4, 2),
                ("netto", 19), ("netto", 31)):
        design = catalogue[key]
        v = design.v
        points = sorted({0, v // 4, v // 2, 3 * v // 4, v - 2})
        assert len(points) == 5 and all(x != v - 1 for x in points)
        for x in points:
            derived = derived_design(design, x)
            p = params_of(derived)
            assert (p.t, p.v, p.k, p.lam) == (2, v - 1, design.k - 1, 1)
            assert verify_steiner(derived, 2).ok
            sampled += 1
    assert sampled == 25
    _announce(7, "line systems at infinity, non-line triple systems, 25 sampled derivations")


def test_criterion_8_golay_pipeline_internals(monkeypatch):
    words = lexicode_codewords()
    assert len(words) == 4096
    octads = construct_octad_design()
    assert octads.b == 759
    first = derived_design(octads, 23)
    assert first.b == 253
    second = derived_design(first, 22)
    assert second.b == 77

    import steiner3.catalog as catalog

    monkeypatch.setattr(catalog, "lexicode_codewords", lambda: words[:100])
    with pytest.raises(GolayConstructionError):
        catalog.construct_octad_design()
    monkeypatch.setattr(
        catalog, "lexicode_codewords",
        lambda: [w for w in words if w.bit_count() != 8] + list(range(759)),
    )
    with pytest.raises(GolayConstructionError):
        catalog.construct_witt_22()
    _announce(8, "4096 codewords, 759 octads, 253 and 77 blocks; miscounts abort")
