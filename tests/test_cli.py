"""Command-line interface: literals, exit codes, files, reports."""

import copy
import hashlib
import io
import json
import random
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincarerep import cli, matrix
from poincarerep.bundle import SOURCES, load_bundle
from poincarerep.cli import (
    EXIT_BAD_INPUT,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_RULE_FAILURE,
    MAX_DIMENSION,
    MAX_SWEEP_BOUND,
    CliError,
    main,
    parse_scalar,
    parse_spins,
)
from poincarerep.radical import (
    I_UNIT, ONE, RadicalScalar, normalize_radical, sqrt_of_rational, unlimited_int_digits,
)
from poincarerep.vectors import BLOCKS

from oracles import is_prime_below_2_41, reference_bundle_dict


class TestScalarLiterals:
    def test_plain_integers_and_fractions(self):
        assert parse_scalar("1") == ONE
        assert parse_scalar("-2") == RadicalScalar.from_rational(-2)
        assert parse_scalar("3/4") == RadicalScalar.from_rational(Fraction(3, 4))

    def test_imaginary_and_radical_terms(self):
        assert parse_scalar("i") == I_UNIT
        assert parse_scalar("-i") == -I_UNIT
        assert parse_scalar("sqrt(2)") == sqrt_of_rational(2)
        assert parse_scalar("1/2*sqrt(3)") == sqrt_of_rational(3) * Fraction(1, 2)

    def test_sums(self):
        val = parse_scalar("1+i")
        assert val == ONE + I_UNIT
        val = parse_scalar("1/2*sqrt(2)+3*i*sqrt(5)-1")
        expected = (
            sqrt_of_rational(2) * Fraction(1, 2)
            + (sqrt_of_rational(5) * 3).times_i()
            - ONE
        )
        assert val == expected

    def test_non_squarefree_radicand_normalized(self):
        assert parse_scalar("sqrt(8)") == sqrt_of_rational(8)

    def test_rejects_garbage(self, tmp_path, capsys):
        # Numbers longer than the interpreter's 4300-digit int-conversion limit.
        long_literals = ("1" * 5000, f"sqrt({'1' * 5000})", f"1/{'1' * 5000}")
        for text in ("", "q", "sqrt(", "1**2", "2..5", "1/0", "sqrt(2305843009213693951)",
                     *long_literals):
            with pytest.raises(CliError):
                parse_scalar(text)
        out = str(tmp_path / "p.json")
        for text in long_literals:
            for argv in (["gen", "--spins", "1,1,0,0", "--t12", text, "--out", out],
                         ["equiv", "--spins", "1,1,0,0", "--lambda12", text]):
                assert main(argv) == EXIT_BAD_INPUT
                err = capsys.readouterr().err
                assert err.startswith("error:") and err.count("\n") == 1


class TestSpinParsing:
    def test_ok(self):
        spins = parse_spins("1,1,0,0")
        assert [s.twice for s in spins] == [1, 1, 0, 0]
        assert 32 * 32 + 32 * 32 == MAX_DIMENSION  # the limit is inclusive
        assert [s.twice for s in parse_spins("31,31,31,31")] == [31, 31, 31, 31]

    def test_errors(self):
        for text in ("1,1,0", "1,1,0,x", "1,1,0,-2", "31,31,31,32"):
            with pytest.raises(CliError):
                parse_spins(text)


def _assert_sweep_bound_rejected(capsys, bound: str) -> None:
    assert main(["verify", "--sweep", bound]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: --sweep bound {bound} is too large")
    assert err.count("\n") == 1


class TestCommands:
    def test_gen_verify_roundtrip(self, tmp_path):
        out = tmp_path / "p.json"
        rc = main([
            "gen", "--spins", "1,1,0,0", "--t12", "1", "--t21", "1",
            "--source", "closed-form", "--block", "keep12", "--out", str(out),
        ])
        assert rc == EXIT_OK
        report_path = tmp_path / "report.json"
        rc = main(["verify", "--in", str(out), "--out", str(report_path)])
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["allHold"] and len(report["rules"]) == 45

    def test_gen_both_blocks_fails_translation_rules(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["gen", "--spins", "1,1,0,0", "--out", str(out)]) == EXIT_OK
        report_path = tmp_path / "report.json"
        rc = main(["verify", "--in", str(out), "--out", str(report_path)])
        assert rc == EXIT_RULE_FAILURE
        report = json.loads(report_path.read_text())
        failing = {r["ruleId"] for r in report["rules"] if not r["holds"]}
        assert failing == {"PP.xy", "PP.xz", "PP.xt", "PP.yz", "PP.yt", "PP.zt"}

    def test_gen_no_solution_exit(self, tmp_path):
        rc = main(["gen", "--spins", "4,0,0,0", "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_NO_SOLUTION

    def test_gen_sources_agree_for_recursion(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen", "--spins", "2,1,1,2", "--out", str(a)]) == EXIT_OK
        assert main([
            "gen", "--spins", "2,1,1,2", "--source", "recursion", "--out", str(b)
        ]) == EXIT_OK
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["matrices"] == db["matrices"]
        assert db["source"] == "recursion"

    def test_corrupted_bundle_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT
        missing = tmp_path / "missing.json"
        assert main(["verify", "--in", str(missing)]) == EXIT_BAD_INPUT
        good = tmp_path / "good.json"
        main(["gen", "--spins", "1,1,0,0", "--out", str(good)])
        for term in (
            {"d": 1, "re": [1, 0], "im": [0, 1]},
            {"d": "x", "re": [1, 1], "im": [0, 1]},
            {"d": 2.5, "re": [1, 1], "im": [0, 1]},
            {"d": 2**61 - 1, "re": [1, 1], "im": [0, 1]},  # too large a prime to split
            {"d": 1, "re": [True, 2], "im": [0, 1]},
            {"d": 1, "re": [1, 2], "im": [False, 1]},
            {"d": 1, "re": "3", "im": [0, 1]},
            {"d": 1, "re": [1, 2, 3], "im": [0, 1]},
        ):
            data = json.loads(good.read_text())
            data["matrices"]["Jz"][0] = [term]
            bad.write_text(json.dumps(data))
            assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT
            assert main(["export", "--in", str(bad), "--format", "plain"]) == EXIT_BAD_INPUT
        doc = json.loads(good.read_text())
        for data in ([], {**doc, "matrices": []}, {**doc, "params": "x"}, {**doc, "dimension": [5]}):
            bad.write_text(json.dumps(data))
            assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT
        # JSON booleans are not integers, although Python's bool is an int.
        main(["gen", "--spins", "1,0,0,1", "--block", "keep12", "--out", str(good)])
        doc = json.loads(good.read_text())
        d_true = copy.deepcopy(doc)
        d_true["matrices"]["Jz"][0] = [{**t, "d": True} for t in doc["matrices"]["Jz"][0]]
        assert [t["d"] for t in doc["matrices"]["Jz"][0]] == [1]
        capsys.readouterr()
        for data in (
            {**doc, "spins": [True, False, False, True]},
            {**doc, "dimension": True},
            d_true,
            {**doc, "schemaVersion": True},
            {**doc, "schemaVersion": 1.0},
        ):
            bad.write_text(json.dumps(data))
            assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
        # Nesting deeper than the interpreter's recursion limit.
        bad.write_text("[" * 100000 + "]" * 100000)
        assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("place", ["cell", "t21"])
    @pytest.mark.parametrize("value", [None, 0, False, "", {}])
    def test_entry_that_is_not_an_array_is_rejected(self, tmp_path, capsys, place, value):
        # Only [] is exact zero; any other falsy entry must not load as zero.
        # With keep12, no check on the 21-block would catch a zero t21.
        path = tmp_path / "p.json"
        main(["gen", "--spins", "1,0,0,1", "--block", "keep12", "--out", str(path)])
        data = json.loads(path.read_text())
        if place == "cell":
            cells = data["matrices"]["Jx"]
            cells[cells.index([])] = value
        else:
            data["params"]["t21"] = value
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--in", str(path)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value",
        [("caseTag", "case1"), ("block", "weird"), ("block", "keep21"), ("source", "nonsense")],
    )
    def test_metadata_must_agree_with_content(self, tmp_path, capsys, field, value):
        path = tmp_path / "p.json"
        main(["gen", "--spins", "1,0,0,1", "--block", "keep12", "--out", str(path)])
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--in", str(path)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_params_must_agree_with_kept_blocks(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["gen", "--spins", "1,0,0,1", "--block", "keep12", "--out", str(path)])
        data = json.loads(path.read_text())
        one = data["params"]["t21"]
        data["params"]["t12"] = []  # zero, while the 12-block of V is not
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", "--in", str(path)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert main(["export", "--in", str(path), "--format", "plain"]) == EXIT_BAD_INPUT
        main(["gen", "--spins", "1,0,0,1", "--t12", "0", "--block", "keep12", "--out", str(path)])
        data = json.loads(path.read_text())
        data["params"]["t12"] = one  # nonzero, while the 12-block of V is zero
        path.write_text(json.dumps(data))
        assert main(["verify", "--in", str(path)]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("block", ["both", "keep12"])
    def test_zero_parameter_round_trip(self, tmp_path, block):
        path = tmp_path / "p.json"
        assert main([
            "gen", "--spins", "1,0,0,1", "--t12", "0", "--block", block, "--out", str(path)
        ]) == EXIT_OK
        assert json.loads(path.read_text())["params"]["t12"] == []
        assert main(["verify", "--in", str(path), "--out", str(tmp_path / "r.json")]) == EXIT_OK

    def test_large_prime_parameter_round_trip(self, tmp_path):
        path = tmp_path / "p.json"
        t = "sqrt(2147483647)"  # a prime; products of its root must not be factored
        assert main([
            "gen", "--spins", "1,0,0,1", "--t12", t, "--t21", t, "--block", "keep12",
            "--out", str(path),
        ]) == EXIT_OK
        assert main(["verify", "--in", str(path), "--out", str(tmp_path / "r.json")]) == EXIT_OK

    def test_hand_corrupted_matrix_lists_failures(self, tmp_path):
        out = tmp_path / "p.json"
        main(["gen", "--spins", "1,0,0,1", "--block", "keep21", "--out", str(out)])
        data = json.loads(out.read_text())
        data["matrices"]["Jz"][0] = [{"d": 1, "re": [9, 1], "im": [0, 1]}]
        out.write_text(json.dumps(data))
        report_path = tmp_path / "report.json"
        rc = main(["verify", "--in", str(out), "--out", str(report_path)])
        assert rc == EXIT_RULE_FAILURE
        report = json.loads(report_path.read_text())
        failing = [r["ruleId"] for r in report["rules"] if not r["holds"]]
        assert failing and any(rid.startswith("J") for rid in failing)

    def test_sweep_small(self, tmp_path):
        report_path = tmp_path / "sweep.json"
        rc = main(["verify", "--sweep", "1", "--out", str(report_path)])
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["quadruples"] == 16
        assert report["admissible"] == 4
        assert report["allHold"]

    def test_verify_needs_exactly_one_mode(self, tmp_path):
        assert main(["verify"]) == EXIT_BAD_INPUT
        out = tmp_path / "p.json"
        main(["gen", "--spins", "1,1,0,0", "--out", str(out)])
        assert main(["verify", "--in", str(out), "--sweep", "1"]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("bound", [
        "99999999999999999999", "9223372036854775807", "9223372036854775806", "55108",
    ])
    def test_sweep_bound_past_quadruple_count_is_input_error(self, capsys, bound):
        # Bounds whose (N+1)**4 quadruples do not fit in 2**63 - 1: the first
        # two once overflowed and the third exhausted memory inside
        # itertools.product.  All are far above MAX_SWEEP_BOUND now.
        _assert_sweep_bound_rejected(capsys, bound)

    def test_sweep_bound_above_limit_is_input_error(self, capsys):
        _assert_sweep_bound_rejected(capsys, str(MAX_SWEEP_BOUND + 1))

    def test_largest_sweep_bound_is_accepted(self, monkeypatch, tmp_path):
        bounds = []

        def fake_sweep(bound):
            bounds.append(bound)
            return {"allHold": True}

        monkeypatch.setattr("poincarerep.cli.sweep", fake_sweep)
        out = tmp_path / "sweep.json"
        assert main(["verify", "--sweep", str(MAX_SWEEP_BOUND), "--out", str(out)]) == EXIT_OK
        assert bounds == [MAX_SWEEP_BOUND]

    @pytest.mark.parametrize("command", ["gen", "equiv"])
    def test_spins_above_dimension_limit_are_input_error(self, command, capsys, tmp_path):
        # 201**2 + 200**2 = 80401; this bundle would take about 200 GB.
        argv = [command, "--spins", "200,200,199,199"]
        if command == "gen":
            argv += ["--out", str(tmp_path / "b.json")]
        assert main(argv) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: --spins 200,200,199,199 give dimension 80401")
        assert err.count("\n") == 1
        assert not (tmp_path / "b.json").exists()


    def test_equiv_case2(self, tmp_path):
        report_path = tmp_path / "equiv.json"
        rc = main([
            "equiv", "--spins", "2,1,1,2", "--out", str(report_path)
        ])
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["proportional"]
        assert report["ratio12"]["display"] == "sqrt(2)"

    def test_equiv_prescaled_gives_unit_ratio(self, tmp_path):
        report_path = tmp_path / "equiv.json"
        rc = main([
            "equiv", "--spins", "1,0,0,1",
            "--t12", "1", "--t21", "1", "--lambda12", "1", "--lambda21", "-2",
            "--out", str(report_path),
        ])
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["ratio12"]["display"] == "1"
        assert report["ratio21"]["display"] == "1"

    def test_equiv_multi_term_lambda_is_input_error(self, capsys):
        rc = main(["equiv", "--spins", "2,1,1,2", "--lambda12", "1+sqrt(2)"])
        assert rc == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "single term" in err

    @pytest.mark.parametrize("flag, block", [("--lambda12", "12"), ("--lambda21", "21")])
    def test_equiv_zero_lambda_reports_the_zero_block(self, tmp_path, flag, block):
        report_path = tmp_path / "equiv.json"
        rc = main(["equiv", "--spins", "1,1,0,0", flag, "0", "--out", str(report_path)])
        assert rc == EXIT_RULE_FAILURE
        report = json.loads(report_path.read_text())
        assert not report["proportional"]
        mismatch = report["mismatch"]
        assert (mismatch["block"], mismatch["component"]) == (block, "x")
        assert mismatch["candidate"] == {"display": "0", "terms": []}
        assert mismatch["reference"]["terms"]

    def test_equiv_no_solution(self):
        assert main(["equiv", "--spins", "2,0,0,0"]) == EXIT_NO_SOLUTION

    def test_export_exact_json_is_byte_identical(self, tmp_path):
        src = tmp_path / "p.json"
        dup = tmp_path / "dup.json"
        for argv, indent in (
            (["--spins", "1,1,0,0", "--block", "keep12"], None),
            (["--spins", "8,8,7,7", "--block", "keep12"], None),
            (["--spins", "2,1,1,2", "--t12", "1/2*sqrt(3)+i", "--t21=-1/3*sqrt(2)+i*sqrt(5)"], 2),
        ):
            assert main(["gen", *argv, "--out", str(src)]) == EXIT_OK
            canonical = src.read_bytes()
            if indent is not None:  # a hand-edited, no longer canonical copy
                src.write_text(json.dumps(json.loads(canonical), indent=indent))
            assert main([
                "export", "--in", str(src), "--format", "exact-json", "--out", str(dup)
            ]) == EXIT_OK
            assert dup.read_bytes() == canonical

    def test_export_of_a_loaded_bundle_runs_no_kernel_call(self, tmp_path, monkeypatch):
        # A bundle holds the matrices its file holds, and forms the spin
        # basis and the families only when a check reads them: neither the
        # loader, on either path, nor any export forms a matrix.
        src, indented, dup = tmp_path / "p.json", tmp_path / "pi.json", tmp_path / "dup.json"
        argv = ["gen", "--spins", "2,1,1,2", "--t12", "1/2*sqrt(3)+i", "--block", "keep12"]
        assert main([*argv, "--out", str(src)]) == EXIT_OK
        indented.write_text(json.dumps(json.loads(src.read_text()), indent=1))

        def no_kernel(*args, **kwargs):
            raise AssertionError("matrix._combine was called")

        monkeypatch.setattr(matrix, "_combine", no_kernel)
        for path in (src, indented):
            assert load_bundle(str(path)).dumps() == src.read_text()
            for fmt in ("float-json", "plain", "exact-json"):
                assert main([
                    "export", "--in", str(path), "--format", fmt, "--out", str(dup)
                ]) == EXIT_OK
            assert dup.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("change, message", [
        ({"d": True}, "a radicand must be a JSON integer"),
        ({"re": [True, 1]}, "re must be a pair of JSON integers"),
        ({"re": [1, 0]}, "malformed scalar term: Fraction(1, 0)"),
    ])
    def test_lookalike_of_a_decoded_entry_is_rejected(self, tmp_path, capsys, change, message):
        good = tmp_path / "good.json"
        main(["gen", "--spins", "1,1,0,0", "--out", str(good)])
        doc = json.loads(good.read_text())
        (valid,) = doc["matrices"]["Jz"][0]
        assert valid == {"d": 1, "re": [1, 1], "im": [0, 1]}
        # The valid entry is decoded first; a copy that equals it in Python
        # (True == 1) or differs only in being malformed must not reuse it.
        doc["matrices"]["Vt"][0] = [{**valid, **change}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: cannot read {bad}: {message}\n"

    def test_export_float_json(self, tmp_path):
        src = tmp_path / "p.json"
        main([
            "gen", "--spins", "2,1,1,0", "--t12", "sqrt(2)", "--out", str(src)
        ])
        out = tmp_path / "floats.json"
        assert main([
            "export", "--in", str(src), "--format", "float-json", "--out", str(out)
        ]) == EXIT_OK
        data = json.loads(out.read_text())
        flat = [
            abs(re) for mat in data["matrices"].values() for re, _ in mat
        ]
        assert any(abs(v - 1.4142135623730951) < 1e-15 for v in flat)

    def test_export_float_json_overflow_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["gen", "--spins", "1,0,0,1", "--block", "keep12", "--out", str(path)])
        doc = json.loads(path.read_text())
        # A coefficient no float holds, and one whose product with sqrt(5) is no float.
        for term in ({"d": 1, "re": [10**400, 1], "im": [0, 1]},
                     {"d": 5, "re": [10**308, 1], "im": [0, 1]}):
            doc["matrices"]["Jz"][0] = [term]
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert main(["export", "--in", str(path), "--format", "float-json"]) == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            for fmt in ("plain", "exact-json"):
                assert main(["export", "--in", str(path), "--format", fmt]) == EXIT_OK

    def test_export_plain(self, tmp_path, capsys):
        src = tmp_path / "p.json"
        main(["gen", "--spins", "1,0,0,1", "--out", str(src)])
        assert main(["export", "--in", str(src), "--format", "plain"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "Vt:" in text and "case2" in text

    def test_unknown_flag_is_input_error(self):
        assert main(["gen", "--nope", "1"]) == EXIT_BAD_INPUT

    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "poincarerep":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        out = str(tmp_path / "b.json")
        assert main(["gen", "--nope", "1"]) == EXIT_BAD_INPUT
        assert main(["gen", "--spins", "1,1,0,0", "--block", "keep12", "--out", out]) == EXIT_OK
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "--in", out]) == EXIT_OK
        assert len(built) <= 1

    def test_bundle_of_radicands_with_a_prime_factor_near_2_20_verifies_quickly(
        self, tmp_path, monkeypatch
    ):
        # One J_x cell holds 40 terms (2**20 - 3) * q, q the 40 largest primes
        # below 2**31: each radicand's smallest factor is the largest prime
        # below 2**20, so trial division by every odd number took about
        # 0.15 s per radicand, and this verify 4.5-6.5 s.
        primes = [q for q in range(2**31 - 1, 2**31 - 2000, -2) if is_prime_below_2_41(q)][:40]
        assert len(primes) == 40
        monkeypatch.chdir(tmp_path)  # the report names its bundle by this relative path
        path, report = Path("h.json"), Path("r.json")
        assert main(["gen", "--spins", "2,1,1,2", "--block", "keep12", "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        data["matrices"]["Jx"][0] = [
            {"d": (2**20 - 3) * q, "re": [1, 1], "im": [0, 1]} for q in primes
        ]
        path.write_text(json.dumps(data))
        normalize_radical.cache_clear()
        start = time.perf_counter()
        assert main(["verify", "--in", str(path), "--out", str(report)]) == EXIT_RULE_FAILURE
        assert time.perf_counter() - start < 2.0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "e0461067c88089e9c0d01190722bd15d5fbf169fd8347282f92ab5eed9d0d2e0"
        )


# Numbers no float holds, as a bare value, inside a term and as a whole
# entry; they are drawn as often as all other values together, since most
# mutations make a bundle that does not load.
HUGE = (
    10**400, -(10**400),
    {"d": 1, "re": [1, 1], "im": [10**400, 1]}, [{"d": 1, "re": [10**400, 1], "im": [0, 1]}],
)
# Values a mutated bundle subtree is replaced with: wrong types, wrong
# shapes, bad terms, huge and negative numbers, and valid-looking metadata.
POOL = HUGE + (
    None, True, 0, 1, -1, 7, 2.5, 2**61 - 1, "", "x", "1", "keep12", "keep21", "both",
    "case1", "case2", "nosolution", "recursion", [], [0], [1, 0], [1, 1, 0, 0], [[]], {},
    {"d": 1, "re": [1, 1], "im": [0, 1]}, {"d": 3, "re": [1, 0], "im": [0, 1]},
    [{"d": 2, "re": [1, 2], "im": [0, 1]}], [{"d": 2**61 - 1, "re": [1, 1], "im": [0, 1]}],
    [{"d": -2, "re": [1, 1], "im": [0, 1]}], [{"re": [1, 1], "im": [0, 1]}],
)
FUZZ_SECONDS = 5.0  # per example; a sane run takes milliseconds


def _paths(node, prefix=()):
    """Every key path into a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _run(argv):
    """main(argv) with its exit code, stderr text and wall time."""
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue(), time.perf_counter() - start


def _assert_clean_exit(code, err, seconds):
    assert code in (EXIT_OK, EXIT_RULE_FAILURE, EXIT_NO_SOLUTION, EXIT_BAD_INPUT)
    if code == EXIT_BAD_INPUT:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert seconds < FUZZ_SECONDS


def _mutated(tree, data):
    """A copy of ``tree`` with one or two drawn subtrees deleted or replaced."""
    tree = copy.deepcopy(tree)
    by_depth = {}
    for path in _paths(tree):
        by_depth.setdefault(len(path), []).append(path)
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        # Draw the depth first, so the few metadata fields are hit as often as matrix terms.
        depth = data.draw(st.sampled_from(sorted(by_depth)), label="depth")
        path = data.draw(st.sampled_from(by_depth[depth]), label="path")
        if not path:
            tree = data.draw(st.sampled_from(POOL), label="root")
            continue
        parent = tree
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed this path
        if not isinstance(parent, (dict, list)):
            continue  # or replaced its parent with a string, which indexes but is immutable
        if data.draw(st.booleans(), label="delete"):
            del parent[path[-1]]
        else:
            value = data.draw(st.sampled_from(POOL) | st.sampled_from(HUGE), label="value")
            parent[path[-1]] = copy.deepcopy(value)
    return tree


def _canonical(tree):
    """``tree`` as ``MatrixBundle.dumps`` writes a bundle: sorted keys, no whitespace."""
    return json.dumps(tree, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.fixture(scope="module")
def keep12_bundle():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        assert main(["gen", "--spins", "1,0,0,1", "--t12", "1/2*sqrt(3)+i", "--block", "keep12",
                     "--out", str(path)]) == EXIT_OK
        return json.loads(path.read_text())


# Forming both sets of the hostile (9,9,8,8) bundle: with each matrix packed
# over one lcm of its denominators, as the product kernel packs, it takes
# over 20 s.
HOSTILE_BASIS_SECONDS = 2.0


def _hostile_bundle(tmp_path, spins):
    """A keep12 bundle with each nonzero J_x, J_y, K_x, K_y and V cell divided
    by its own odd 60-bit number, written as the canonical writer writes:
    each fraction in lowest terms, so the fast loader reads it."""
    rng = random.Random(23)
    path = tmp_path / "hostile.json"
    assert main(["gen", "--spins", spins, "--block", "keep12", "--out", str(path)]) == EXIT_OK
    tree = json.loads(path.read_text())
    for key in ("Jx", "Jy", "Kx", "Ky", "Vx", "Vy", "Vz", "Vt"):
        for cell in tree["matrices"][key]:
            factor = rng.getrandbits(60) | 1 << 59 | 1
            for term in cell:
                for part in (term["re"], term["im"]):
                    if part[0]:
                        value = Fraction(*part) / factor
                        part[:] = [value.numerator, value.denominator]
    path.write_text(_canonical(tree))
    return path


class TestFuzz:
    @given(data=st.data())
    @settings(max_examples=250, deadline=None)
    def test_verify_mutated_bundle(self, keep12_bundle, data):
        tree = copy.deepcopy(keep12_bundle)
        by_depth = {}
        for path in _paths(tree):
            by_depth.setdefault(len(path), []).append(path)
        for _ in range(data.draw(st.integers(1, 2), label="mutations")):
            # Draw the depth first, so the few metadata fields are hit as often as matrix terms.
            depth = data.draw(st.sampled_from(sorted(by_depth)), label="depth")
            path = data.draw(st.sampled_from(by_depth[depth]), label="path")
            if not path:
                tree = data.draw(st.sampled_from(POOL), label="root")
                continue
            parent = tree
            try:
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]]
            except (KeyError, IndexError, TypeError):
                continue  # an earlier mutation removed this path
            if not isinstance(parent, (dict, list)):
                continue  # or replaced its parent with a string, which indexes but is immutable
            if data.draw(st.booleans(), label="delete"):
                del parent[path[-1]]
            else:
                value = data.draw(st.sampled_from(POOL) | st.sampled_from(HUGE), label="value")
                parent[path[-1]] = copy.deepcopy(value)
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "bad.json"
            bad.write_text(json.dumps(tree))
            _assert_clean_exit(*_run(["verify", "--in", str(bad)]))
            for fmt in ("float-json", "plain"):
                _assert_clean_exit(*_run(["export", "--in", str(bad), "--format", fmt]))

    @given(data=st.data())
    @settings(max_examples=250, deadline=None)
    def test_verify_mutated_canonical_bundle(self, keep12_bundle, data):
        # The mutations of test_verify_mutated_bundle, written as the canonical
        # writer writes, so that each reaches the fast loader first.
        tree = _mutated(keep12_bundle, data)
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "bad.json"
            bad.write_text(_canonical(tree))
            _assert_clean_exit(*_run(["verify", "--in", str(bad)]))
            for fmt in ("float-json", "plain"):
                _assert_clean_exit(*_run(["export", "--in", str(bad), "--format", fmt]))

    @pytest.mark.parametrize("key, span", [
        pytest.param("Jx", "[" + "[{" * 500_000 + "]]", id="unclosed-cells"),
        pytest.param("Jx", "[" + "[]," * 350_000, id="unclosed-first-matrix"),
        pytest.param("Vz", "[" + "[]," * 350_000, id="unclosed-last-matrix"),
    ])
    def test_a_hostile_canonical_looking_bundle_ends_quickly(self, keep12_bundle, key, span):
        tree = copy.deepcopy(keep12_bundle)
        tree["matrices"][key] = []
        text = _canonical(tree).replace(f'"{key}":[]', f'"{key}":{span}', 1)
        assert len(text) > 10**6
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "bad.json"
            bad.write_text(text)
            code, err, seconds = _run(["verify", "--in", str(bad)])
        assert code == EXIT_BAD_INPUT
        _assert_clean_exit(code, err, seconds)

    def test_export_of_a_hostile_bundle_ends_quickly(self, tmp_path):
        # Export forms no basis.  The indented copy is read through json.loads.
        path, out = _hostile_bundle(tmp_path, "8,8,7,7"), tmp_path / "out.json"
        tree = json.loads(path.read_text())
        for text in (_canonical(tree), json.dumps(tree, indent=1)):
            path.write_text(text)
            code, err, seconds = _run(
                ["export", "--in", str(path), "--format", "exact-json", "--out", str(out)]
            )
            assert (code, err) == (EXIT_OK, "")
            assert seconds < FUZZ_SECONDS
            assert out.read_text() == _canonical(reference_bundle_dict(load_bundle(str(path))))

    def test_bases_of_a_hostile_bundle_form_quickly(self, tmp_path):
        # A basis change sums each cell over that cell's own denominators, not
        # over the lcm of a whole matrix, so forming both sets takes milliseconds.
        bundle = load_bundle(str(_hostile_bundle(tmp_path, "9,9,8,8")))
        start = time.perf_counter()
        gen, vec = bundle.generators, bundle.vectors
        assert time.perf_counter() - start < HOSTILE_BASIS_SECONDS
        assert gen.cartesian + vec.cartesian == bundle.cartesian

    @given(
        text=st.one_of(
            st.text(alphabet="0123456789/+-*i sqrt()", max_size=24),
            st.lists(
                st.tuples(
                    st.sampled_from(["", "-"]),
                    st.sampled_from(
                        ["", "0", "1", "3/4", "7/0", "12345678901234567", "9" * 4400]
                    ),
                    st.sampled_from(["", "i", "*i"]),
                    st.sampled_from(
                        ["", "sqrt(2)", "*sqrt(8)", "*sqrt(0)", "*sqrt(1099511627775)"]
                    ),
                ).map("".join),
                min_size=1,
                max_size=3,
            ).map("+".join),
        )
    )
    # "--t12=--" reaches the command as an empty list on Python 3.11.
    @example(text="--")
    @settings(max_examples=80, deadline=None)
    def test_gen_literals(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            out = str(Path(tmp) / "p.json")
            code, err, seconds = _run(["gen", "--spins", "1,0,0,1", f"--t12={text}", "--out", out])
        assert code in (EXIT_OK, EXIT_BAD_INPUT)
        _assert_clean_exit(code, err, seconds)

    # Terms at the limits the parser sets: literals of about 4300 digits, on
    # both sides of Python's limit, and radicands just below 2**40 and at it.
    CHAIN_TERMS = st.tuples(
        st.sampled_from(["", "-"]),
        st.sampled_from(["2", "3/4", "9" * 4299, "9" * 4300, "1/" + "7" * 4300, "9" * 4301]),
        st.sampled_from(["", "*i"]),
        st.sampled_from(["", "", "*sqrt(6)", "*sqrt(1099511627773)", "*sqrt(1099511627775)",
                         "*sqrt(1099511627776)"]),
    ).map("".join)

    @given(
        spins=st.sampled_from(["1,0,0,1", "1,1,0,0", "3,2,2,1"]),
        source=st.sampled_from(SOURCES),
        block=st.sampled_from(BLOCKS),
        t12=st.lists(CHAIN_TERMS, min_size=1, max_size=2).map("+".join),
        t21=st.lists(CHAIN_TERMS, min_size=1, max_size=2).map("+".join),
        lam=st.sampled_from(["1", "-2/3", "7" * 4300, "i*sqrt(1099511627775)"]),
    )
    # A 4300-digit literal times a radical near 2**40 gives an entry past the
    # digit limit; gen once raised the writer's ValueError with a traceback.
    @example(spins="3,2,2,1", source="closed-form", block="both",
             t12="9" * 4300 + "*sqrt(1099511627775)", t21="1", lam="1")
    @settings(max_examples=40, deadline=None)
    def test_the_command_chain_at_the_limits(self, spins, source, block, t12, t21, lam):
        # gen, verify --in, equiv and export, each ending with exit 0, 1 or 3
        # and, on 3, one error: line.
        with tempfile.TemporaryDirectory() as tmp:
            bundle, report, fit, exported = (str(Path(tmp) / name) for name in "brex")
            steps = [
                ["gen", "--spins", spins, "--source", source, "--block", block,
                 f"--t12={t12}", f"--t21={t21}", "--out", bundle],
                ["verify", "--in", bundle, "--out", report],
                ["equiv", "--spins", spins, f"--t12={t12}", f"--t21={t21}", f"--lambda12={lam}",
                 "--out", fit],
                ["export", "--in", bundle, "--format", "exact-json", "--out", exported],
                ["export", "--in", bundle, "--format", "float-json"],
                ["export", "--in", bundle, "--format", "plain"],
            ]
            codes = []
            for argv in steps:
                code, err, seconds = _run(argv)
                assert code in (EXIT_OK, EXIT_RULE_FAILURE, EXIT_BAD_INPUT), (argv[0], code)
                assert "Traceback" not in err
                _assert_clean_exit(code, err, seconds)
                codes.append(code)
            if codes[0] == EXIT_OK:
                assert Path(exported).read_bytes() == Path(bundle).read_bytes()
            else:
                assert not Path(bundle).exists()


class TestGenWritesWithoutABasisChange:
    @pytest.mark.parametrize("source", SOURCES)
    def test_gen_never_calls_change_basis(self, source, tmp_path, monkeypatch):
        # J and K are written out from each irrep's ladders and V from its
        # families, so gen runs with change_basis refused under every name.
        original = matrix.change_basis

        def refuse(*args):
            raise AssertionError("change_basis called")

        for name, module in list(sys.modules.items()):
            if name.startswith("poincarerep") and vars(module).get("change_basis") is original:
                monkeypatch.setattr(module, "change_basis", refuse)
        for block in BLOCKS:
            out = tmp_path / f"{block}.json"
            argv = ["gen", "--spins", "3,2,2,1", "--source", source, "--block", block,
                    "--t12=3/4*sqrt(6)+2/5*i*sqrt(10)", "--t21=-5/7*sqrt(3)", "--out", str(out)]
            assert main(argv) == EXIT_OK
        # The refusal is live: verify --in forms the loaded bundle's bases.
        with pytest.raises(AssertionError, match="change_basis called"):
            main(["verify", "--in", str(out), "--out", str(tmp_path / "r.json")])


class TestDigitLimit:
    """Integers past the 4300 digits CPython converts to text by default."""

    def test_a_residual_past_the_limit_is_written(self, tmp_path):
        # 3**8500 has 4056 digits, so the parser takes it; the six PP
        # residuals of a both bundle hold t12 * t21, of about 8100 digits.
        with unlimited_int_digits():
            literal = str(3**8500)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        bundle, report = tmp_path / "g.json", tmp_path / "r.json"
        gen = ["gen", "--spins", "1,1,0,0", f"--t12={literal}", f"--t21={literal}",
               "--out", str(bundle)]
        assert _run(gen)[:2] == (EXIT_OK, "")
        code, err, seconds = _run(["verify", "--in", str(bundle), "--out", str(report)])
        assert (code, err) == (EXIT_RULE_FAILURE, "")
        assert seconds < FUZZ_SECONDS
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        with unlimited_int_digits():
            rules = json.loads(report.read_text())["rules"]
            failing = [rule for rule in rules if not rule["holds"]]
            assert [rule["ruleId"] for rule in failing] == [
                "PP.xy", "PP.xz", "PP.xt", "PP.yz", "PP.yt", "PP.zt"
            ]
            digits = max(
                len(str(abs(n)))
                for rule in failing
                for term in rule["firstViolation"]["residual"]
                for n in term["re"] + term["im"]
            )
        assert digits > 4300

    def test_a_ratio_past_the_limit_is_written(self, tmp_path):
        with unlimited_int_digits():
            literal = str(3**8500)
        out = tmp_path / "e.json"
        argv = ["equiv", "--spins", "1,1,0,0", f"--t12={literal}", f"--lambda12=1/{literal}",
                "--out", str(out)]
        code, err, seconds = _run(argv)
        assert (code, err) == (EXIT_OK, "")
        assert seconds < FUZZ_SECONDS
        with unlimited_int_digits():
            ratio = json.loads(out.read_text())["ratio12"]["terms"]
            assert len(str(ratio[0]["re"][0])) > 4300

    def test_an_entry_past_the_limit_is_not_written(self, tmp_path):
        # In case 4 at (1,1)+(3/2,3/2) one entry is 2 t: at t = 9...9 of the
        # limit's length, its integer has one digit too many to be read back.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is None:
            pytest.skip("this Python converts integers of any length to text")
        out = tmp_path / "g.json"
        argv = ["gen", "--spins", "2,2,3,3", f"--t12={'9' * limit}", "--out", str(out)]
        code, err, _ = _run(argv)
        assert code == EXIT_BAD_INPUT
        assert err == (
            f"error: cannot write {out}: a matrix entry holds an integer of more than"
            f" {limit} digits\n"
        )
        assert not out.exists()


class TestWriteErrors:
    """A command whose --out cannot be opened exits 3 with one line and writes nothing."""

    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("in") / "b.json"
        assert main(["gen", "--spins", "2,1,1,2", "--block", "keep12", "--out", str(path)]) == EXIT_OK
        return path

    ARGV = {
        "gen": ["gen", "--spins", "2,1,1,2"],
        "verify-in": ["verify", "--in", "{bundle}"],
        "verify-sweep": ["verify", "--sweep", "1"],
        "equiv": ["equiv", "--spins", "2,1,1,2"],
        **{
            f"export-{fmt}": ["export", "--in", "{bundle}", "--format", fmt]
            for fmt in ("exact-json", "float-json", "plain")
        },
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_an_unwritable_out_is_input_error(self, bundle, tmp_path, command, target):
        work = tmp_path / "work"
        work.mkdir()
        out = work / "missing" / "o.txt" if target == "missing-directory" else work
        argv = [arg.format(bundle=bundle) for arg in self.ARGV[command]]
        code, err, _ = _run(argv + ["--out", str(out)])
        assert code == EXIT_BAD_INPUT
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {out}: "), err
        assert [p.name for p in tmp_path.rglob("*")] == ["work"]

    def test_a_negative_sweep_bound_is_input_error(self, capsys):
        assert main(["verify", "--sweep", "-1"]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == "error: --sweep bound must be nonnegative\n"
