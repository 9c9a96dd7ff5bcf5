"""Differential and golden checks for the permutation-group and sieve layers.

`reference_flag_report` is the straightforward transitivity report: a
queue BFS over flags and one orbit partition per action, written
directly on image tuples.  The library's frontier-based `orbit` must
give the same `FlagReport`, field for field.  `reference_screen` is the
sieve's screen written check by check with a frozen, self-checking
report; the table-driven sieve must give the same fields for every
pair.  The SHA-256 digests pin the bytes of generator files and sieve
output written by the CLI.
"""

import hashlib
import json
from collections import deque
from dataclasses import dataclass, fields
from itertools import zip_longest
from operator import attrgetter

import pytest

from steiner3.catalog import (
    AFFINE_KINDS,
    PROJECTIVE_KINDS,
    affine_group_generators,
    construct_boolean_affine,
    construct_spherical,
    projective_group_generators,
)
from steiner3.cli import main
from steiner3.design import CAMERON_EQUALITY_CASES, Design, blocksize_bound
from steiner3.permgrp import FlagReport, GeneratorSet, is_flag_transitive
from steiner3.sieve import (
    _OUTCOMES,
    SieveReport,
    admissible_parameters,
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


def _block_images(design: Design, g: tuple) -> tuple:
    return tuple(design.block_index([g[x] for x in block]) for block in design.blocks)


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


class TestFlagReportDifferential:
    def test_flag_transitive_pairs(self, flag_transitive_pairs):
        for label, design, gens in flag_transitive_pairs:
            assert is_flag_transitive(design, gens) == reference_flag_report(
                design, gens
            ), label

    def test_psl29_on_spherical32(self, catalogue):
        design = catalogue[("spherical", 3, 2)]
        gens = projective_group_generators("PSL", 3, 2)
        report = is_flag_transitive(design, gens)
        assert report == reference_flag_report(design, gens)
        assert report.block_orbit_sizes == (15, 15)

    def test_agl116_on_affine4(self, catalogue):
        design = catalogue[("affine", 4)]
        gens = affine_group_generators("AGL_1", 4)
        report = is_flag_transitive(design, gens)
        assert report == reference_flag_report(design, gens)
        assert (report.flag_orbit_size, report.flag_count) == (240, 560)
        assert report.block_orbit_sizes == (60, 60, 20)

    def test_trivial_group(self):
        design = construct_boolean_affine(3)
        gens = GeneratorSet(8, ())
        assert is_flag_transitive(design, gens) == reference_flag_report(design, gens)

    def test_point_stabilizer_subgroup(self):
        # x -> x^3 fixes GF(3) and infinity on the line over GF(9): a
        # group of order 2 with several point, pair and block orbits
        design = construct_spherical(3, 2)
        frob = projective_group_generators("PSigmaL", 3, 2).gens[-1]
        gens = GeneratorSet(10, (frob,))
        report = is_flag_transitive(design, gens)
        assert report == reference_flag_report(design, gens)
        assert report.point_orbit_count > 1


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

    def test_every_kind_is_covered(self):
        kinds = {kind for _, kind, *_ in GROUPGENS_DIGESTS}
        assert kinds == set(AFFINE_KINDS + PROJECTIVE_KINDS)


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

    def test_reports_share_the_table_tuples(self):
        first, second = screen_parameters(22, 4), screen_parameters(22, 6)
        assert first.checks is second.checks


SIEVE_DIGESTS = {
    ("--v-min", "4", "--v-max", "10000"): "a0d198d6d660795d5fd9242e5e28aa4096eee2fcd60a61a02649d9666363a84e",
    ("--v-min", "4", "--v-max", "3000", "--json"): "d19dac62ba9de82f92d33afa09feea770cfd1aa3613cf49098594ebac6b29f23",
    ("--v-min", "999800", "--v-max", "1000000"): "716aaa604f8966d390506318a060f5b0ca82e6e14c97203da9ad17144639a4fd",
}


@pytest.mark.parametrize("case", sorted(SIEVE_DIGESTS), ids=_case_id)
def test_sieve_stdout_digest(case, capsys):
    assert main(["sieve", *case]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SIEVE_DIGESTS[case]
