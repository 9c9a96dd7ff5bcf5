"""CLI verbs, exit-code contract, and output stability."""

import gc
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import steiner3
from steiner3 import (
    CatalogError,
    DesignError,
    FieldError,
    GolayConstructionError,
    NotFlagTransitive,
    PermutationError,
    SearchBudgetExceeded,
    SetNotPreserved,
    SieveError,
    Steiner3Error,
    catalog,
    cli,
)
from steiner3.catalog import lexicode_codewords
from steiner3.cli import main
from steiner3.design import Design, to_json
from steiner3.gf import prime_power

LIBRARY_ERRORS = (
    CatalogError,
    DesignError,
    FieldError,
    GolayConstructionError,
    NotFlagTransitive,
    PermutationError,
    SearchBudgetExceeded,
    SetNotPreserved,
    SieveError,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def witt_file(tmp_path, capsys):
    path = tmp_path / "witt.json"
    code, out, _ = run(capsys, "construct", "--family", "witt", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture
def spherical32_file(tmp_path, capsys):
    path = tmp_path / "sph.json"
    code, _, _ = run(
        capsys, "construct", "--family", "spherical", "--q", "3", "--e", "2",
        "--out", str(path),
    )
    assert code == 0
    return path


class TestConstructVerify:
    def test_witt_summary(self, witt_file, capsys):
        code, out, _ = run(capsys, "verify", str(witt_file))
        assert code == 0
        assert "3-(22,6,1), b=77" in out
        assert "ok" in out

    def test_affine_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "aff.json"
        code, out, _ = run(
            capsys, "construct", "--family", "affine", "--d", "4", "--out", str(path)
        )
        assert code == 0 and "3-(16,4,1), b=140" in out
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_tampered_design_fails_with_witness(self, tmp_path, witt_file, capsys):
        payload = json.loads(witt_file.read_text())
        payload["blocks"] = payload["blocks"][1:]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", str(broken))
        assert code == 1
        assert "fail" in out and "0 blocks" in out

    def test_missing_family_args(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "construct", "--family", "affine", "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        assert "error" in err

    def test_explicit_strength(self, tmp_path, capsys):
        path = tmp_path / "aff.json"
        run(capsys, "construct", "--family", "affine", "--d", "3", "--out", str(path))
        code, _, _ = run(capsys, "verify", str(path), "--t", "2")
        assert code == 1  # a Steiner 3-design is not a Steiner 2-design


class TestDeriveParams:
    def test_derive_writes_derived_design(self, tmp_path, witt_file, capsys):
        out = tmp_path / "derived.json"
        code, text, _ = run(
            capsys, "derive", str(witt_file), "--point", "21", "--out", str(out)
        )
        assert code == 0
        assert "2-(21,5,1), b=21" in text
        code, _, _ = run(capsys, "verify", str(out))
        assert code == 0

    def test_params(self, witt_file, capsys):
        code, out, _ = run(capsys, "params", str(witt_file))
        assert code == 0
        assert "b: 77" in out and "r: 21" in out and "lambda2: 5" in out


class TestFlagcheck:
    def test_negative_split_exits_one(self, tmp_path, spherical32_file, capsys):
        gens = tmp_path / "psl29.gens"
        run(capsys, "groupgens", "--family", "projective", "--kind", "PSL",
            "--q", "3", "--e", "2", "--out", str(gens))
        code, out, _ = run(capsys, "flagcheck", str(spherical32_file), "--gens", str(gens))
        assert code == 1
        assert "flag-transitive: no" in out
        assert "block orbits: 2" in out
        assert "block orbit sizes: 15,15" in out

    def test_positive_exits_zero(self, tmp_path, spherical32_file, capsys):
        gens = tmp_path / "pgl29.gens"
        run(capsys, "groupgens", "--family", "projective", "--kind", "PGL",
            "--q", "3", "--e", "2", "--out", str(gens))
        code, out, _ = run(capsys, "flagcheck", str(spherical32_file), "--gens", str(gens))
        assert code == 0
        assert "flag-transitive: yes" in out

    def test_non_automorphism_reports_witness(self, tmp_path, spherical32_file, capsys):
        gens = tmp_path / "swap.gens"
        gens.write_text("degree: 10\n(1 2)\n")
        code, out, _ = run(capsys, "flagcheck", str(spherical32_file), "--gens", str(gens))
        assert code == 1
        assert "preserves blocks: no" in out
        assert "witness block:" in out


    def test_witness_of_a_loaded_design_is_plain_ints(self, tmp_path, capsys):
        # the design is loaded as one int32 array; the witness is read off
        # it and must print as the tuple of ints it was before
        design = tmp_path / "n43.json"
        run(capsys, "construct", "--family", "netto", "--q", "43", "--out", str(design))
        gens = tmp_path / "swap.gens"
        gens.write_text("degree: 44\n(40 44)\n")
        out = "preserves blocks: no\nwitness block: 0,1,7,43\n"
        assert run(capsys, "flagcheck", str(design), "--gens", str(gens)) == (1, out, "")
        loaded = steiner3.from_json(design.read_text())
        swap = steiner3.parse_generators(gens.read_text())
        with pytest.raises(SetNotPreserved) as err:
            steiner3.is_flag_transitive(loaded, swap)
        assert str(err.value) == "image of block (0, 1, 7, 43) is not a block"
        assert all(type(p) is int for p in err.value.witness)


class TestGroups:
    def test_autgroup_and_order(self, tmp_path, capsys):
        design = tmp_path / "aff3.json"
        run(capsys, "construct", "--family", "affine", "--d", "3", "--out", str(design))
        gens = tmp_path / "aut.gens"
        code, out, _ = run(capsys, "autgroup", str(design), "--out", str(gens))
        assert code == 0 and "order: 1344" in out
        code, out, _ = run(capsys, "order", str(gens))
        assert code == 0
        assert "order: 1344" in out
        assert "stabilizer orders: 1344," in out

    def test_groupgens_affine(self, tmp_path, capsys):
        path = tmp_path / "agl.gens"
        code, out, _ = run(
            capsys, "groupgens", "--family", "affine", "--kind", "AGL_1",
            "--d", "3", "--out", str(path),
        )
        assert code == 0 and "degree: 8" in out
        code, out, _ = run(capsys, "order", str(path))
        assert "order: 56" in out

    @pytest.mark.parametrize(
        "text,out",
        [
            ("degree: 1\nimg: 0\n", "order: 1\nbase: \nstabilizer orders: 1\n"),
            ("degree: 2\n(1 2)\n", "order: 2\nbase: 0\nstabilizer orders: 2,1\n"),
            ("degree: 2\nimg: 0,1\n", "order: 1\nbase: \nstabilizer orders: 1\n"),
        ],
        ids=["degree-1", "degree-2", "degree-2-identity"],
    )
    def test_order_at_the_smallest_degrees(self, text, out, tmp_path, capsys):
        # composition gathers images with itemgetter, which returns a
        # bare item, not a 1-tuple, for a single index
        path = tmp_path / "small.gens"
        path.write_text(text)
        assert run(capsys, "order", str(path)) == (0, out, "")


class TestArithmeticVerbs:
    def test_sieve_text(self, capsys):
        code, out, _ = run(capsys, "sieve", "--v-min", "16", "--v-max", "16")
        assert code == 0
        assert out == "v=16 k=4 admissible\n"

    def test_sieve_json(self, capsys):
        code, out, _ = run(capsys, "sieve", "--v-min", "22", "--v-max", "22", "--json")
        assert code == 0
        reports = json.loads(out)
        admissible = [(r["v"], r["k"]) for r in reports if r["admissible"]]
        assert admissible == [(22, 4), (22, 6)]
        assert any(r["equality_listed"] for r in reports)

    def test_classify_none(self, capsys):
        code, out, _ = run(capsys, "classify", "--v", "12", "--k", "4")
        assert code == 0
        assert out == "none\n"

    def test_classify_rows(self, capsys):
        code, out, _ = run(capsys, "classify", "--v", "8", "--k", "4")
        assert code == 0
        assert "affine" in out and "netto" in out

    def test_cyclotomic(self, capsys):
        code, out, _ = run(capsys, "cyclotomic", "--d", "6", "--q", "2")
        assert code == 0
        assert "Phi_6(2) = 3" in out and "Phi*_6(2) = 1" in out

    def test_zsigmondy(self, capsys):
        code, out, _ = run(capsys, "zsigmondy", "--q", "2", "--n", "6")
        assert code == 0 and out == "none\n"
        code, out, _ = run(capsys, "zsigmondy", "--q", "2", "--n", "11")
        assert out == "23,89\n"

    def test_rnagell(self, capsys):
        code, out, _ = run(capsys, "rnagell", "--max-n", "63")
        assert code == 0
        assert out == "x=5 n=3\nx=7 n=5\nx=9 n=6\nx=23 n=9\n"


class TestSieveWrites:
    """Reports go to stdout SIEVE_WRITE_CHUNK at a time: one or two writes
    per report made each one a system call on unbuffered stdout."""

    def test_json_sweep(self, counting_sink):
        pairs = 225_722  # every (v, k) with 4 <= k <= blocksize_bound(v)
        with redirect_stdout(counting_sink):
            assert main(["sieve", "--v-min", "4", "--v-max", "5000", "--json"]) == 0
        assert counting_sink.writes <= -(-pairs // cli.SIEVE_WRITE_CHUNK) + 2
        assert (counting_sink.lines, counting_sink.chars) == (1, 48_885_997)

    def test_text_sweep(self, counting_sink):
        lines = 37_173  # admissible pairs with 4 <= v <= 50000
        with redirect_stdout(counting_sink):
            assert main(["sieve", "--v-min", "4", "--v-max", "50000"]) == 0
        assert counting_sink.lines == lines
        assert counting_sink.writes <= -(-lines // cli.SIEVE_WRITE_CHUNK) + 2


class TestErrorContract:
    def test_unknown_verb_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(capsys, "rnagell", "--max-n", "5", "--wat")[0] == 2

    def test_missing_file_is_usage_error(self, capsys):
        assert run(capsys, "verify", "/nonexistent/design.json")[0] == 2

    def test_bad_parameters_are_usage_errors(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "construct", "--family", "netto", "--q", "13",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2 and "error" in err

    def test_out_of_range_sieve(self, capsys):
        assert run(capsys, "sieve", "--v-min", "3", "--v-max", "5")[0] == 2

    @staticmethod
    def assert_usage_error(result):
        code, out, err = result
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "verb,extra", [("derive", ["--point", "0"]), ("params", [])], ids=["derive", "params"]
    )
    def test_design_above_2_to_the_31_points(self, verb, extra, tmp_path, capsys):
        # derive wrote a design of 2^31 points from this and exited 0
        design = tmp_path / "big.json"
        design.write_text(json.dumps({"v": 2**31 + 1, "t": 3, "blocks": [[0, 1, 2, 2**31]]}))
        out = tmp_path / "derived.json"
        argv = [verb, str(design), *extra] + (["--out", str(out)] if verb == "derive" else [])
        self.assert_usage_error(run(capsys, *argv))
        assert not out.exists()

    def test_autgroup_above_search_bound(self, tmp_path, capsys):
        path = tmp_path / "n67.json"
        run(capsys, "construct", "--family", "netto", "--q", "67", "--out", str(path))
        self.assert_usage_error(
            run(capsys, "autgroup", str(path), "--out", str(tmp_path / "aut.gens"))
        )

    def test_flagcheck_above_the_partial_steiner_block_count(self, tmp_path, capsys):
        # all 27405 4-subsets of 30 points: S30 preserves them, but no
        # partial Steiner 3-system has more than C(30,3)/C(4,3) = 1015 blocks
        design = tmp_path / "all4.json"
        blocks = [list(s) for s in combinations(range(30), 4)]
        design.write_text(json.dumps({"v": 30, "t": 3, "lambda": 1, "blocks": blocks}))
        gens = tmp_path / "s30.gens"
        gens.write_text("degree: 30\n(1 2)\n(" + " ".join(map(str, range(1, 31))) + ")\n")
        result = run(capsys, "flagcheck", str(design), "--gens", str(gens))
        self.assert_usage_error(result)
        assert result[2] == (
            "error: 27405 blocks of size 4 on 30 points: "
            "a partial Steiner 3-system has at most 1015\n"
        )

    @pytest.mark.parametrize(
        "v,blocks,limit",
        [
            # all 4-subsets of 6 points: Aut is S6, but each 3-subset lies in 3 blocks
            (6, [list(s) for s in combinations(range(6), 4)], 5),
            (7, [list(s) for s in combinations(range(7), 4) if sum(s) % 2 == 0], 8),
        ],
        ids=["all-4-subsets-of-6", "even-sum-4-subsets-of-7"],
    )
    def test_autgroup_with_a_3_subset_in_two_blocks(self, v, blocks, limit, tmp_path, capsys):
        design = tmp_path / "d.json"
        design.write_text(json.dumps({"v": v, "t": 3, "lambda": 1, "blocks": blocks}))
        gens = tmp_path / "aut.gens"
        result = run(capsys, "autgroup", str(design), "--out", str(gens))
        self.assert_usage_error(result)
        # more blocks than C(v,3)/C(4,3): refused by the bound, not by the table
        assert result[2] == (
            f"error: {len(blocks)} blocks of size 4 on {v} points: "
            f"a partial Steiner 3-system has at most {limit}\n"
        )
        assert not gens.exists()

    def test_autgroup_and_flagcheck_refuse_an_over_full_file_alike(
        self, tmp_path, capsys, monkeypatch
    ):
        # all 70 4-subsets of 8 points, against at most C(8,3)/C(4,3) = 14
        # blocks; neither verb marks a 3-subset table for them
        def unmarked(*args):
            raise AssertionError("mark_triples called on an over-full block list")

        monkeypatch.setattr(steiner3.design, "mark_triples", unmarked)
        monkeypatch.chdir(tmp_path)
        blocks = [list(s) for s in combinations(range(8), 4)]
        Path("all4.json").write_text(json.dumps({"v": 8, "t": 3, "blocks": blocks}))
        Path("s8.gens").write_text("degree: 8\n(1 2)\n(1 2 3 4 5 6 7 8)\n")
        want = "error: 70 blocks of size 4 on 8 points: a partial Steiner 3-system has at most 14\n"
        for argv in (["autgroup", "all4.json", "--out", "aut.gens"],
                     ["flagcheck", "all4.json", "--gens", "s8.gens"]):
            result = run(capsys, *argv)
            self.assert_usage_error(result)
            assert result[2] == want, argv[0]
        assert not Path("aut.gens").exists()

    def test_autgroup_refuses_many_wide_blocks_without_a_table(self, tmp_path, capsys):
        # 20000 blocks of 32 points on 64 points, against a bound of 8:
        # the table fill once wrote C(32,3) ranks per block to word this
        rows = np.random.default_rng(0).random((20000, 64)).argsort(axis=1)[:, :32]
        rows = np.unique(np.sort(rows, axis=1), axis=0)
        path = tmp_path / "wide.json"
        path.write_text(to_json(Design(64, 3, rows)))
        started = time.perf_counter()
        result = run(capsys, "autgroup", str(path), "--out", str(tmp_path / "aut.gens"))
        self.assert_usage_error(result)
        assert result[2] == (
            f"error: {len(rows)} blocks of size 32 on 64 points: "
            "a partial Steiner 3-system has at most 8\n"
        )
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize(
        "v,k",
        [
            # v - 1 = 2^61 - 1, a prime = 7 mod 12: the Netto test would factor it
            ("2305843009213693952", "4"),
            ("1" + "0" * 46, "1" + "0" * 23 + "8"),
        ],
        ids=["mersenne-61", "46-digit"],
    )
    def test_classify_above_the_factoring_cap(self, v, k):
        child = _entry(["classify", "--v", v, "--k", k])
        self.assert_usage_error((child.returncode, child.stdout, child.stderr))

    def test_classify_at_and_above_the_cap(self, capsys):
        code, out, _ = run(capsys, "classify", "--v", str(1 << 40), "--k", "4")
        assert (code, out) == (0, "affine(d=40): AGL(40,2)\n")
        self.assert_usage_error(run(capsys, "classify", "--v", str((1 << 40) + 1), "--k", "4"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--family", "spherical", "--q", "3", "--e", "10000"],
            ["groupgens", "--family", "projective", "--kind", "PGL", "--q", "3", "--e", "10000"],
            ["construct", "--family", "netto", "--q", str(2**61 - 1)],
            ["construct", "--family", "spherical", "--q", str(2**61 - 1), "--e", "2"],
            ["groupgens", "--family", "projective", "--kind", "PSL", "--q", str(2**61 - 1)]
            + ["--e", "1"],
            ["construct", "--family", "affine", "--d", "1000000000"],
        ],
        ids=[
            "spherical-e10000", "pgl-e10000", "netto-m61", "spherical-m61", "psl-m61", "affine-d1e9"
        ],
    )
    def test_family_above_the_point_bound(self, argv, tmp_path, capsys, monkeypatch):
        def guarded(q):
            assert q <= 127, f"prime_power({q}) called"
            return prime_power(q)

        monkeypatch.setattr(catalog, "prime_power", guarded)
        out = tmp_path / "out"
        self.assert_usage_error(run(capsys, *argv, "--out", str(out)))
        assert not out.exists()

    @pytest.mark.parametrize(
        "blocks",
        [[[0, 1], [2, 3], [4, 5]], [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]],
        ids=["matching", "path"],
    )
    def test_autgroup_on_blocks_of_two_points(self, blocks, tmp_path, capsys):
        design = tmp_path / "d.json"
        design.write_text(json.dumps({"v": 6, "t": 1, "blocks": blocks}))
        gens = tmp_path / "aut.gens"
        result = run(capsys, "autgroup", str(design), "--out", str(gens))
        self.assert_usage_error(result)
        assert result[2] == "error: automorphism search needs blocks of at least 3 points, got 2\n"
        assert not gens.exists()

    @pytest.mark.parametrize(
        "verb,extra",
        [
            ("verify", []),
            ("params", []),
            ("derive", ["--point", "0", "--out", "derived.json"]),
            ("flagcheck", ["--gens", "agl18.gens"]),
            ("autgroup", ["--out", "aut.gens"]),
        ],
        ids=["verify", "params", "derive", "flagcheck", "autgroup"],
    )
    @pytest.mark.parametrize(
        "text",
        [
            "[" * 3000 + "]" * 3000,
            '{"v":4,"t":3,"blocks":[[0,1,2,3]],"labels":' + "[" * 10**5 + "]" * 10**5 + "}",
        ],
        ids=["nested-array", "nested-labels"],
    )
    def test_design_json_nested_too_deeply(self, verb, extra, text, tmp_path, capsys, monkeypatch):
        # json.loads raised RecursionError: exit 1 and a traceback
        monkeypatch.chdir(tmp_path)
        Path("deep.json").write_text(text)
        Path("agl18.gens").write_text("degree: 4\n(1 2)\n")
        result = run(capsys, verb, "deep.json", *extra)
        self.assert_usage_error(result)
        assert result[2] == "error: design JSON is nested too deeply\n"
        assert not Path("derived.json").exists() and not Path("aut.gens").exists()

    def test_verify_on_a_directory(self, tmp_path, capsys):
        self.assert_usage_error(run(capsys, "verify", str(tmp_path)))

    def test_verify_on_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"v": 8, "t": 3, "labels": ["\xe9"]}')
        self.assert_usage_error(run(capsys, "verify", str(path)))

    @pytest.mark.parametrize(
        "payload",
        [
            {"v": 8, "t": 3, "blocks": [["0", 1, 2, 3]]},
            {"v": 8.0, "t": 3, "blocks": [[0, 1, 2, 3]]},
            {"v": 8, "t": True, "blocks": [[0, 1, 2, 3]]},
            {"v": 8, "t": 3, "blocks": [[0, 1, 2, 3.0]]},
            {"v": 8, "t": 3, "blocks": "0123"},
            {"v": 2, "t": 1, "blocks": [[0], [1]], "labels": ["a", 2]},
        ],
        ids=["string-point", "float-v", "bool-t", "float-point", "string-blocks", "int-label"],
    )
    def test_design_json_with_wrong_types(self, payload, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        self.assert_usage_error(run(capsys, "verify", str(path)))

    @pytest.mark.parametrize("t", ["-1", "0", "5"])
    def test_verify_strength_outside_one_to_k(self, t, tmp_path, capsys):
        path = tmp_path / "aff.json"
        run(capsys, "construct", "--family", "affine", "--d", "3", "--out", str(path))
        self.assert_usage_error(run(capsys, "verify", str(path), "--t", t))

    def test_verify_within_the_subset_budget(self, tmp_path, capsys):
        # one block of all 40 points: C(40,12) ~ 5.6e9 subsets were once
        # enumerated into a dict; C(40,3) = 9880 fit the budget of C(128,3)
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"v": 40, "t": 3, "blocks": [list(range(40))]}))
        result = run(capsys, "verify", str(path), "--t", "12")
        self.assert_usage_error(result)
        assert result[2] == (
            "error: verification budget is 341376 subsets, got C(40,12) = 5586853480\n"
        )
        assert run(capsys, "verify", str(path)) == (0, "3-(40,40,1), b=1\nok\n", "")

    def test_params_on_one_wide_block(self, tmp_path, capsys):
        # one block of 60000 points on 2^31 with t = 60000: two C(v,t) and a
        # walk down every column took over a second before the refusal
        path = tmp_path / "wide.json"
        path.write_text(to_json(Design(2**31, 60000, np.arange(0, 600000, 10)[np.newaxis])))
        started = time.perf_counter()
        result = run(capsys, "params", str(path))
        self.assert_usage_error(result)
        assert result[2] == "error: block count 1 does not give lambda = 1\n"
        assert time.perf_counter() - started < 0.5

    def test_params_on_one_block_of_most_points(self, tmp_path, capsys, monkeypatch):
        # one block of 60000 points on 119999 with t = 60000: v // k = 1, so
        # the bound on the t factors gave nothing, and C(119999, 60000) was
        # formed; the v - k mirrored factors are each at least 2
        path = tmp_path / "most.json"
        path.write_text(to_json(Design(119999, 60000, np.arange(0, 120000, 2)[np.newaxis])))
        comb = math.comb

        def small_comb(n, t):
            assert t < 1000, f"C({n}, {t}) formed"
            return comb(n, t)

        monkeypatch.setattr(math, "comb", small_comb)
        result = run(capsys, "params", str(path))
        self.assert_usage_error(result)
        assert result[2] == "error: block count 1 does not give lambda = 1\n"

    def test_verify_above_the_point_cap_prints_nothing(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"v": 129, "t": 3, "blocks": [[0, 1, 2, 3]]}))
        result = run(capsys, "verify", str(path))
        self.assert_usage_error(result)
        assert "128 points" in result[2]

    @pytest.mark.parametrize("bad", ["design", "gens"])
    def test_flagcheck_names_the_non_utf8_file(self, bad, tmp_path, capsys):
        files = {"design": tmp_path / "aff.json", "gens": tmp_path / "agl.gens"}
        run(capsys, "construct", "--family", "affine", "--d", "3", "--out", str(files["design"]))
        run(capsys, "groupgens", "--family", "affine", "--kind", "AGL_1", "--d", "3",
            "--out", str(files["gens"]))
        files[bad].write_bytes(b"# caf\xe9\n" + files[bad].read_bytes())
        result = run(capsys, "flagcheck", str(files["design"]), "--gens", str(files["gens"]))
        self.assert_usage_error(result)
        assert result[2].startswith(f"error: {files[bad]} is not UTF-8 text")

    @pytest.mark.parametrize("d", ["8193", "100000", "3000000"])
    def test_cyclotomic_above_the_cap(self, d, capsys):
        self.assert_usage_error(run(capsys, "cyclotomic", "--d", d, "--q", "2"))

    @pytest.mark.parametrize("n", ["64", "100000", "1000000000"])
    def test_zsigmondy_above_the_factoring_bound(self, n, capsys):
        result = run(capsys, "zsigmondy", "--q", "2", "--n", n)
        self.assert_usage_error(result)
        assert f"q = 2 and n = {n}" in result[2]

    @pytest.mark.parametrize("q,n", [("2", "63"), ("3", "39")])
    def test_zsigmondy_at_the_factoring_bound(self, q, n, capsys):
        code, out, err = run(capsys, "zsigmondy", "--q", q, "--n", n)
        assert code == 0 and err == ""
        for p in map(int, out.split(",")):
            assert (int(q) ** int(n) - 1) % p == 0 and p % int(n) == 1

    def test_gens_degree_above_the_point_cap(self, tmp_path, capsys):
        path = tmp_path / "huge.gens"
        path.write_text("degree: 1000000000\n(1 2)\n")
        result = run(capsys, "order", str(path))
        self.assert_usage_error(result)
        assert "128-point cap" in result[2]

    def test_gens_above_the_generator_cap(self, tmp_path, capsys):
        path = tmp_path / "many.gens"
        path.write_text("degree: 4\n" + "(1 2)\n(1 2 3 4)\n" * 64 + "(1 3)\n")
        result = run(capsys, "order", str(path))
        self.assert_usage_error(result)
        assert result[2] == "error: line 130: more than 128 generators\n"

    def test_gens_at_the_generator_cap(self, tmp_path, capsys):
        path = tmp_path / "many.gens"
        path.write_text("degree: 4\n" + "(1 2)\n(1 2 3 4)\n" * 64)
        code, out, err = run(capsys, "order", str(path))
        assert code == 0 and err == "" and out.startswith("order: 24\n")

    @pytest.mark.parametrize("error", LIBRARY_ERRORS, ids=lambda e: e.__name__)
    def test_every_library_error_exits_two(self, error, monkeypatch, capsys):
        exc = error((0, 1, 2)) if error is SetNotPreserved else error("injected")

        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "ramanujan_nagell", fail)
        result = run(capsys, "rnagell", "--max-n", "5")
        self.assert_usage_error(result)
        assert result[2] == f"error: {exc}\n"

    def test_every_exported_exception_derives_from_steiner3error(self):
        exported = {
            value
            for value in vars(steiner3).values()
            if isinstance(value, type) and issubclass(value, BaseException)
        }
        assert exported == set(LIBRARY_ERRORS) | {Steiner3Error}
        for error in LIBRARY_ERRORS:
            assert issubclass(error, Steiner3Error)


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        outputs = []
        for _ in range(2):
            path = tmp_path / "netto.json"
            _, out1, _ = run(capsys, "construct", "--family", "netto", "--q", "19",
                             "--out", str(path))
            _, out2, _ = run(capsys, "flagcheck", str(path), "--gens", str(_gens(tmp_path, capsys)))
            _, out3, _ = run(capsys, "sieve", "--v-min", "4", "--v-max", "30", "--json")
            outputs.append(out1 + out2 + out3 + path.read_text())
        assert outputs[0] == outputs[1]

    def test_search_trace_leaves_outputs_alone(self, tmp_path, monkeypatch, capsys):
        design = tmp_path / "witt.json"
        run(capsys, "construct", "--family", "witt", "--out", str(design))
        results = {}
        for trace in ("0", "1"):
            monkeypatch.setenv("STEINER3_TRACE", trace)
            gens = tmp_path / f"aut{trace}.gens"
            code, out, err = run(capsys, "autgroup", str(design), "--out", str(gens))
            assert code == 0
            results[trace] = out, gens.read_bytes(), err
        assert results["0"][:2] == results["1"][:2]
        assert results["0"][2] == ""
        assert _trace_lines(results["1"][2]) == [
            {
                "stage": "permgrp.automorphism_group",
                "levels": 22,
                "trials": 166,
                "successes": 20,
                "nodes": 398,
                "settled": 0,
            },
            WITT_AUT_ORDER_TRACE,
        ]

    def test_order_trace_leaves_stdout_alone(self, tmp_path, monkeypatch, capsys):
        design, gens = tmp_path / "witt.json", tmp_path / "aut.gens"
        run(capsys, "construct", "--family", "witt", "--out", str(design))
        run(capsys, "autgroup", str(design), "--out", str(gens))
        results = {}
        for trace in ("0", "1"):
            monkeypatch.setenv("STEINER3_TRACE", trace)
            code, out, err = run(capsys, "order", str(gens))
            assert code == 0
            results[trace] = out, err
        assert results["0"][0] == results["1"][0]
        assert "order: 887040" in results["0"][0]
        assert results["0"][1] == ""
        assert _trace_lines(results["1"][1]) == [WITT_AUT_ORDER_TRACE]

    def test_flagcheck_trace_leaves_stdout_alone(self, tmp_path, monkeypatch, capsys):
        design = tmp_path / "netto.json"
        run(capsys, "construct", "--family", "netto", "--q", "19", "--out", str(design))
        gens = _gens(tmp_path, capsys)
        results = {}
        for trace in ("0", "1"):
            monkeypatch.setenv("STEINER3_TRACE", trace)
            code, out, err = run(capsys, "flagcheck", str(design), "--gens", str(gens))
            assert code == 0
            results[trace] = out, err
        assert results["0"][0] == results["1"][0]
        assert "flag orbit: 1140" in results["0"][0]
        assert results["0"][1] == ""
        # one line: the stabilizer chain it builds writes no group_order line
        assert _trace_lines(results["1"][1]) == [
            {
                "stage": "permgrp.is_flag_transitive",
                "generators": 3,
                "admitted": 3,
                "stabilizer_generators": 2,
                "through_blocks": 57,
                "flag_orbit": 1140,
            }
        ]

    def test_lexicode_trace_leaves_outputs_alone(self, tmp_path, monkeypatch, capsys):
        results = {}
        for trace in ("0", "1"):
            monkeypatch.setenv("STEINER3_TRACE", trace)
            lexicode_codewords.cache_clear()
            design = tmp_path / f"witt{trace}.json"
            code, out, err = run(capsys, "construct", "--family", "witt", "--out", str(design))
            assert code == 0
            results[trace] = out, design.read_bytes(), err
        assert results["0"][:2] == results["1"][:2]
        assert results["0"][2] == ""
        assert _trace_lines(results["1"][2]) == [
            {"stage": "catalog.lexicode_codewords", "basis": 12, "scanned": 38505, "tables": 7}
        ]
        # a cached call does no work and writes nothing
        code, _, err = run(capsys, "construct", "--family", "witt", "--out", str(design))
        assert (code, err) == (0, "")

    def test_block_orbit_trace_leaves_outputs_alone(self, tmp_path, monkeypatch, capsys):
        results = {}
        for trace in ("0", "1"):
            monkeypatch.setenv("STEINER3_TRACE", trace)
            design = tmp_path / f"n127-{trace}.json"
            code, out, err = run(capsys, "construct", "--family", "netto", "--q", "127",
                                 "--out", str(design))
            assert code == 0
            results[trace] = out, design.read_bytes(), err
        assert results["0"][:2] == results["1"][:2]
        assert results["0"][2] == ""
        # 85344 blocks, each mapped by the 3 generators once
        assert _trace_lines(results["1"][2]) == [
            {"stage": "catalog._block_orbit", "levels": 17, "images": 256032, "blocks": 85344}
        ]

    @pytest.mark.parametrize(
        "flag,mode,screened,yielded",
        [("", "divisor", 428, 124), ("--json", "full", 1492, 1492)],
        ids=["text", "json"],
    )
    def test_sieve_trace_leaves_stdout_alone(
        self, flag, mode, screened, yielded, monkeypatch, capsys
    ):
        argv = ["sieve", "--v-min", "4", "--v-max", "200", *filter(None, [flag])]
        results = {}
        for trace in ("0", "1"):
            monkeypatch.setenv("STEINER3_TRACE", trace)
            code, out, err = run(capsys, *argv)
            assert code == 0
            results[trace] = out, err
        assert results["0"][0] == results["1"][0]
        assert results["0"][1] == ""
        assert json.loads(results["1"][1]) == {
            "stage": "sieve.admissible_parameters",
            "mode": mode,
            "v_min": 4,
            "v_max": 200,
            "screened": screened,
            "yielded": yielded,
        }


WITT_AUT_ORDER_TRACE = {"stage": "permgrp.group_order", "levels": 6, "sifts": 287, "schreier": 320}


def _trace_lines(err: str) -> list[dict]:
    return [json.loads(line) for line in err.splitlines()]


class TestImports:
    def test_flagcheck_leaves_numpy_ma_unimported(self, tmp_path, capsys):
        # numpy.ma comes in with the first np.unique call and costs 10-25 ms
        design, gens = tmp_path / "aff3.json", tmp_path / "agl18.gens"
        run(capsys, "construct", "--family", "affine", "--d", "3", "--out", str(design))
        run(capsys, "groupgens", "--family", "affine", "--kind", "AGL_1", "--d", "3",
            "--out", str(gens))
        script = (
            "import sys\n"
            "from steiner3.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy.ma' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, "flagcheck", str(design), "--gens", str(gens)],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "flag-transitive: yes" in result.stdout
        assert result.stdout.splitlines()[-1] == "False"


class TestBenchTraceSpans:
    """`bench/run.py --trace 1` fails a groups run in which the
    `design.from_json` or `permgrp.block_action` span records no call, so
    the 128-point flag check must keep calling both through the names a
    tracer can wrap."""

    def test_flagcheck_at_128_points(self, tmp_path, capsys, monkeypatch):
        design, gens = tmp_path / "n127.json", tmp_path / "psl127.gens"
        run(capsys, "construct", "--family", "netto", "--q", "127", "--out", str(design))
        run(capsys, "groupgens", "--family", "projective", "--kind", "PSL", "--q", "127",
            "--e", "1", "--out", str(gens))
        calls = _count_calls(monkeypatch, ("design", "from_json"), ("permgrp", "block_action"))
        code, out, _ = run(capsys, "flagcheck", str(design), "--gens", str(gens))
        assert code == 0 and "flag-transitive: yes" in out
        count = len(steiner3.parse_generators(gens.read_text()).gens)
        assert count == 3
        assert calls == {"design.from_json": 1, "permgrp.block_action": count}

    def test_agl62_flagcheck_calls_block_action_per_generator(self, tmp_path, capsys, monkeypatch):
        # the groups workload's other flag check that reaches block_action:
        # 16 of its 60 calls, one per generator the stabilizer chain admits
        # of the file's 36; 44 others settle automorphism searches
        design, gens = tmp_path / "aff6.json", tmp_path / "agl62.gens"
        run(capsys, "construct", "--family", "affine", "--d", "6", "--out", str(design))
        run(capsys, "groupgens", "--family", "affine", "--kind", "AGL_d_2", "--d", "6",
            "--out", str(gens))
        calls = _count_calls(monkeypatch, ("design", "from_json"), ("permgrp", "block_action"))
        code, out, _ = run(capsys, "flagcheck", str(design), "--gens", str(gens))
        assert code == 0 and "flag-transitive: yes" in out
        assert calls == {"design.from_json": 1, "permgrp.block_action": 16}


def _count_calls(monkeypatch, *names) -> dict[str, int]:
    """Put a counting wrapper in place of each (module, function) wherever
    the package or one of its modules binds it, as bench/tracer.py wraps
    every public function; returns the counts, keyed "module.function"."""
    modules = [steiner3] + [m for name, m in sys.modules.items() if name.startswith("steiner3.")]
    calls = {}
    for short, attr in names:
        real = getattr(sys.modules[f"steiner3.{short}"], attr)
        key = f"{short}.{attr}"
        calls[key] = 0

        def counted(*args, _real=real, _key=key, **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)

        for module in modules:
            for bound, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, bound, counted)
    return calls


class TestProcessEntry:
    """`python -m steiner3.cli` freezes the import-time heap; `main(argv)`
    called in process leaves the caller's collector alone."""

    def test_in_process_main_does_not_freeze(self, capsys):
        before = gc.get_freeze_count()
        code, out, _ = run(capsys, "zsigmondy", "--q", "2", "--n", "11")
        assert (code, out) == (0, "23,89\n")
        assert gc.get_freeze_count() == before

    def test_gc_trace_line(self):
        argv = ["zsigmondy", "--q", "2", "--n", "6"]
        off, on = _entry(argv, trace="0"), _entry(argv, trace="1")
        assert off.returncode == on.returncode == 0
        assert off.stdout == on.stdout == "none\n"
        assert off.stderr == ""
        line = json.loads(on.stderr.splitlines()[-1])
        assert line["stage"] == "cli.gc"
        assert line["frozen"] > 0
        assert len(line["collections"]) == 3

    @pytest.mark.parametrize(
        "verb,code",
        [("zsigmondy", 0), ("flagcheck", 1), ("usage", 2)],
    )
    def test_entry_matches_in_process_main(self, verb, code, tmp_path, spherical32_file, capsys):
        gens = tmp_path / "psl29.gens"
        run(capsys, "groupgens", "--family", "projective", "--kind", "PSL",
            "--q", "3", "--e", "2", "--out", str(gens))
        argv = {
            "zsigmondy": ["zsigmondy", "--q", "2", "--n", "11"],
            "flagcheck": ["flagcheck", str(spherical32_file), "--gens", str(gens)],
            "usage": ["zsigmondy", "--q", "2"],
        }[verb]
        got, out, _ = run(capsys, *argv)
        child = _entry(argv)
        assert got == child.returncode == code
        assert child.stdout == out


def _child_env(**extra) -> dict:
    """The environment for a child interpreter that imports this checkout's
    steiner3."""
    src = str(Path(steiner3.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _entry(argv, trace="0") -> subprocess.CompletedProcess:
    """`python -m steiner3.cli ARGV` in a child process, output captured."""
    return subprocess.run(
        [sys.executable, "-m", "steiner3.cli", *argv], capture_output=True, text=True,
        env=_child_env(STEINER3_TRACE=trace), timeout=60,
    )


def _gens(tmp_path, capsys):
    path = tmp_path / "psl19.gens"
    main(["groupgens", "--family", "projective", "--kind", "PSL", "--q", "19",
          "--e", "1", "--out", str(path)])
    capsys.readouterr()
    return path
