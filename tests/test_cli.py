"""CLI verbs, exit-code contract, and output stability."""

import json

import pytest

from steiner3.cli import main


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

    def test_autgroup_above_search_bound(self, tmp_path, capsys):
        path = tmp_path / "n67.json"
        run(capsys, "construct", "--family", "netto", "--q", "67", "--out", str(path))
        self.assert_usage_error(
            run(capsys, "autgroup", str(path), "--out", str(tmp_path / "aut.gens"))
        )

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


def _gens(tmp_path, capsys):
    path = tmp_path / "psl19.gens"
    main(["groupgens", "--family", "projective", "--kind", "PSL", "--q", "19",
          "--e", "1", "--out", str(path)])
    capsys.readouterr()
    return path
