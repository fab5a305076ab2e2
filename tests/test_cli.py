"""Tests for the command-line interface: schemas, exit codes, determinism."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from hybridseq import HybridNumber, QuadExt, binet, cli, genfunc, identities, sequences
from hybridseq.cli import CASE_BUDGET, DIGIT_CAP, TERM_CAP, _over_cap, main

EXPECTED_TABLE = """\
×       1       i       ε       h
1       1       i       ε       h
i       i       -1      1-h     ε+i
ε       ε       1+h     0       -ε
h       h       -(ε+i)  ε       1
"""


# sha256 of stdout for fixed commands, recorded before values became
# int-first; any change of number type must leave every stream byte-identical.
GOLDEN_DIGESTS = {
    "verify": "04d67a49c76ffc56c98f9d7156e7863bdd772a2ba61d379648b124b47ed727e8",
    "verify --suite docagne --audit":
        "608949f98e7353a987ae7c01a5de33faf35352189a0106548ad5ef4b7e5c9d4d",
    "binet --p 1 --q 1 --to 300":
        "878e8b2edd87c55cff1ff6bfce047d26c2202867683d2331f0b4b9deaa5f383c",
    "binet --p -2 --q 3 --a 3 --b -1 --from -80 --to 50 --format csv":
        "2c35c103375614413416c902bfe5a627c6a4dee37a935bd6a2e0862edb9440df",
    "seq --p 2 --q 3 --from -1000 --to 1000":
        "3ecba4a76ecda7cebea74538ff7d60155c7b84a85bb6207888220b4a6a8d9350",
    "seq --p 1 --q -3 --a 2 --b 5 --from -60 --to 40 --kind scalar --format csv":
        "25408d03c6bec68b8bff5689574810cca97c5ee14a5df0345af8d5282dee4a29",
    "expand --p 2 --q 3 --terms 150":
        "55c3c6b57098571b6a40467eedf98bdfe624b6cadf6bfe2db30e4b72599791d2",
    # recorded before the integer frontier and the render-once writers
    "verify --format csv":
        "3f1e9f557fbf18d03f9a1391dcc396150b790b8efb8bbb51301d9f0d37039a19",
    "seq --p 2 --q 3 --from -40 --to 400 --format csv":
        "e9434edc16eb40bc563984e7012734135fbb49b8f63000282d85fc2637bbec46",
    "seq --p 3 --q 2 --from -300 --to 300 --kind scalar":
        "8cf936129017a02db6b714bc885f4b162acc980e282d60957554df609df75718",
    "expand --p 3 --q -2 --terms 200 --format csv":
        "465cd06e6f16d23b431cb9b75c2a04b6b0584e16718789bfc24829576b08b268",
    # q = -1: the backward frontier's denominator alternates sign
    "seq --p 1 --q -1 --a 2 --b 5 --from -300 --to 20 --kind scalar":
        "e5e819573ab26e822a3720440aabd5f8d677eb9f00ea9f87103c7e76ac11cdc5",
    "binet --p 3 --q -2 --seq lucas --from -90 --to 10":
        "2c2b472710ed81937e486154922e16e402aa3eba1d5b0a2bf54b7f951a416eb9",
    # recorded before the integer-numerator sides: every suite and variant,
    # with Fraction values at the extended (negative) indices
    "verify --audit":
        "0ef1fc18ee74d34352d4e8f4b3469f137e5d58a81e9d1519546aa9d13f4b0d05",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_golden_output(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert out == EXPECTED_TABLE

    def test_cells(self, capsys):
        _, out, _ = run_cli(capsys, "table")
        rows = [line.split() for line in out.splitlines()]
        grid = {(row[0], col): cell for row in rows[1:] for col, cell in zip(rows[0][1:], row[1:])}
        assert grid[("i", "ε")] == "1-h"
        assert grid[("ε", "ε")] == "0"
        assert grid[("h", "i")] == "-(ε+i)"


class TestSeq:
    def test_hybrid_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--p", "1", "--q", "1", "--a", "0", "--b", "1",
            "--from", "0", "--to", "1", "--kind", "hybrid",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines == [
            {"n": 0, "hybrid": {"s": "0", "i": "1", "e": "1", "h": "2"}},
            {"n": 1, "hybrid": {"s": "1", "i": "1", "e": "2", "h": "3"}},
        ]

    def test_scalar_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--p", "1", "--q", "1", "--from", "0", "--to", "0",
            "--kind", "scalar",
        )
        assert code == 0
        assert out.strip() == '{"n":0,"value":"0"}'

    def test_negative_range_and_rational_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--p", "1", "--q", "2", "--kind", "scalar",
            "--from", "-2", "--to", "0", "--seq", "fib",
        )
        assert code == 0
        values = [json.loads(line)["value"] for line in out.splitlines()]
        assert values == ["-1/4", "1/2", "0"]

    def test_bad_range_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "seq", "--p", "1", "--q", "1", "--from", "3", "--to", "1")
        assert code == 2
        assert "error" in err

    def test_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "seq", "--p", "2", "--q", "-1", "--from", "0", "--to", "5")
        for line in out.splitlines():
            payload = json.loads(line)
            z = HybridNumber.from_json_dict(payload["hybrid"])
            assert z.to_json_dict() == payload["hybrid"]

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--p", "1", "--q", "1", "--from", "0", "--to", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,s,i,e,h"
        assert lines[1] == "0,0,1,1,2"


class TestBinet:
    def test_method_tag_and_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "binet", "--p", "1", "--q", "1", "--from", "-3", "--to", "8"
        )
        assert code == 0
        for line in out.splitlines():
            assert json.loads(line)["method"] == "binet"

    def test_q_zero_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "binet", "--p", "1", "--q", "0", "--from", "0", "--to", "1")
        assert code == 2
        assert "nonzero" in err

    def test_every_index_is_cross_checked(self, capsys, monkeypatch):
        closed_form = binet.binet_window

        def perturbed(ctx, lo, hi):
            return [z + HybridNumber(0, 0, 1, 0) if n == 37 else z
                    for n, z in enumerate(closed_form(ctx, lo, hi), lo)]

        monkeypatch.setattr(binet, "binet_window", perturbed)
        code, out, err = run_cli(
            capsys, "binet", "--p", "2", "--q", "-3", "--from", "-20", "--to", "60"
        )
        assert code == 1
        # the line says why: the closed form and the recurrence, in wire format
        params = sequences.HoradamParams(2, -3, 0, 1)
        recurrence = HybridNumber(*(sequences.horadam(params, k) for k in range(37, 41)))
        assert [json.loads(line) for line in err.splitlines()] == [{
            "n": 37, "error": "binet/recurrence divergence",
            "binet": (recurrence + HybridNumber(0, 0, 1, 0)).to_json_dict(),
            "recurrence": recurrence.to_json_dict(),
        }]
        assert [json.loads(line)["n"] for line in out.splitlines()] == [
            n for n in range(-20, 61) if n != 37
        ]

    def test_divergent_value_over_the_cap_is_left_out(self, capsys, monkeypatch):
        closed_form = binet.binet_window
        huge = 10**DIGIT_CAP  # one digit over the cap: rendering it would fail

        def perturbed(ctx, lo, hi):
            return [z + HybridNumber(0, huge, 0, 0) if n == 5 else z
                    for n, z in enumerate(closed_form(ctx, lo, hi), lo)]

        monkeypatch.setattr(binet, "binet_window", perturbed)
        code, out, err = run_cli(capsys, "binet", "--p", "1", "--q", "1", "--to", "9")
        assert code == 1
        recurrence = HybridNumber(*(sequences.fib(1, 1, k) for k in range(5, 9)))
        assert [json.loads(line) for line in err.splitlines()] == [{
            "n": 5, "error": "binet/recurrence divergence",
            "recurrence": recurrence.to_json_dict(),
        }]
        assert [json.loads(line)["n"] for line in out.splitlines()] == [
            n for n in range(10) if n != 5
        ]

    def test_one_recurrence_window_per_run(self, capsys, monkeypatch):
        constructed = []
        original_init = sequences.SeqCache.__init__

        def counting_init(self, params):
            constructed.append(params)
            original_init(self, params)

        monkeypatch.setattr(sequences.SeqCache, "__init__", counting_init)
        code, out, _ = run_cli(capsys, "binet", "--p", "1", "--q", "1", "--from", "0", "--to", "499")
        assert code == 0
        assert len(out.splitlines()) == 500
        assert len(constructed) <= 4

    def test_one_power_per_window(self, capsys, monkeypatch):
        # make_context's α², α³, β², β³, then one power for the whole walk
        powers = []
        original_pow = QuadExt.__pow__

        def counting_pow(self, exponent):
            powers.append(exponent)
            return original_pow(self, exponent)

        monkeypatch.setattr(QuadExt, "__pow__", counting_pow)
        code, out, _ = run_cli(capsys, "binet", "--p", "1", "--q", "1", "--from", "0", "--to", "499")
        assert code == 0
        assert len(out.splitlines()) == 500
        assert len(powers) <= 5


class TestChar:
    def test_null_class(self, capsys):
        code, out, _ = run_cli(capsys, "char", "0,0,1,0")
        assert code == 0
        assert json.loads(out) == {"character": "0", "norm_value": 0.0, "norm_class": "null"}

    def test_real_unit(self, capsys):
        _, out, _ = run_cli(capsys, "char", "1,0,0,0")
        assert json.loads(out) == {"character": "1", "norm_value": 1.0, "norm_class": "positive"}

    def test_negative_class(self, capsys):
        _, out, _ = run_cli(capsys, "char", "0,2,1,1")
        assert json.loads(out) == {"character": "-1", "norm_value": 1.0, "norm_class": "negative"}

    def test_rational_components(self, capsys):
        _, out, _ = run_cli(capsys, "char", "1/2,0,0,0")
        assert json.loads(out)["character"] == "1/4"

    @pytest.mark.parametrize(
        "components,magnitude,sign_class",
        [("1e200,0,0,0", 1e200, "positive"), ("0,0,0,3e200", 3e200, "negative"),
         ("1e-200,0,0,0", 1e-200, "positive"), ("1e-300,0,0,0", 1e-300, "positive"),
         ("0,0,0,3e-300", 3e-300, "negative")],
    )
    def test_magnitude_of_a_character_past_float_range(
        self, capsys, components, magnitude, sign_class
    ):
        # the character (about 1e±400 or 1e-600) is no float, its square root is
        code, out, _ = run_cli(capsys, "char", components)
        assert code == 0
        line = json.loads(out)
        assert (line["norm_value"], line["norm_class"]) == (magnitude, sign_class)

    def test_parse_failure(self, capsys):
        code, _, err = run_cli(capsys, "char", "1,2,3")
        assert code == 2 and "error" in err
        code, _, err = run_cli(capsys, "char", "a,b,c,d")
        assert code == 2

    @pytest.mark.parametrize("components,message", [
        # Fraction reads "1_0" as 10 from Python 3.11 on and "1 / 2" as 1/2
        # from 3.12 on; the wire format takes neither, on any version
        ("1_0,2,3,4", "invalid rational '1_0': no '_' or blank may stand inside it"),
        ("1,2,3/4_0,4", "invalid rational '3/4_0': no '_' or blank may stand inside it"),
        ("1 / 2,0,0,0", "invalid rational '1 / 2': no '_' or blank may stand inside it"),
        ("1/0,0,0,0", "invalid rational '1/0': zero denominator"),
        ("0, 0/0 ,0,0", "invalid rational ' 0/0 ': zero denominator"),
    ])
    def test_wire_format_errors_name_the_component(self, capsys, components, message):
        code, out, err = run_cli(capsys, "char", components)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_blanks_around_a_component_are_allowed(self, capsys):
        _, out, _ = run_cli(capsys, "char", " 1 ,2, 3 ,4")
        assert json.loads(out)["character"] == "-23"


class TestArithmeticErrors:
    def test_overflow_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "char", "1e400,0,0,0")
        assert code == 2
        assert out == ""
        assert err == "error: the norm magnitude √|character| is out of float range\n"

    def test_underflow_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "char", "1e-700,0,0,0")
        assert code == 2
        assert out == ""
        assert err == "error: the norm magnitude √|character| is below float range\n"

    def test_closed_form_failure_is_a_verification_error(self, capsys, monkeypatch):
        def broken(ctx, lo, hi):
            raise binet.LemmaMismatchError(f"closed form failed at n={lo}")

        monkeypatch.setattr(binet, "binet_window", broken)
        code, _, err = run_cli(capsys, "binet", "--p", "1", "--q", "1", "--to", "3")
        assert code == 1
        assert err == "error: closed form failed at n=0\n"

    def test_no_traceback_from_the_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hybridseq", "char", "1e400,0,0,0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


class TestDigitCap:
    """Windows over the documented output cap are rejected before any output."""

    @pytest.mark.parametrize(
        "argv,name,index",
        [
            (("seq", "--p", "1", "--q", "1", "--from", "20570", "--to", "20600",
              "--kind", "scalar"), "n", 20578),
            (("seq", "--p", "1", "--q", "1", "--from", "20560", "--to", "20600",
              "--format", "csv"), "n", 20575),
            (("seq", "--p", "1", "--q", "2", "--from", "-14300", "--to", "-14280",
              "--kind", "scalar"), "n", -14300),
            (("binet", "--p", "1", "--q", "1", "--from", "21000", "--to", "21001"), "n", 21000),
            (("expand", "--p", str(10**30), "--q", "1", "--terms", "200"), "r", 142),
        ],
    )
    def test_over_cap_is_one_error_line_and_no_output(self, capsys, argv, name, index):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {name}={index} needs a value of more than {DIGIT_CAP} digits "
            "(the output cap)\n"
        )

    def test_largest_value_under_the_cap_prints(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--p", "1", "--q", "1", "--from", "20577", "--to", "20577",
            "--kind", "scalar",
        )
        assert code == 0
        assert len(json.loads(out)["value"]) == DIGIT_CAP

    def test_expand_just_under_the_cap_prints(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--p", str(10**30), "--q", "1", "--terms", "141")
        assert code == 0
        assert len(out.splitlines()) == 142

    def test_boundary_by_counting(self):
        top = 10**DIGIT_CAP
        for fits in (top - 1, -(top - 1), 2 ** (top.bit_length() - 1), Fraction(1, top - 1)):
            assert not _over_cap(fits), fits
        for over in (top, -top, 2 ** top.bit_length(), Fraction(1, top), Fraction(top, 3)):
            assert _over_cap(over), over


class TestVerifyDigitCap:
    """verify --format csv prints left sides and --audit every value: both
    are checked against the cap before the first line."""

    # square-difference's left side passes 4,300 digits at n = 356 for p = 10⁶
    GRID = "p=1000000\nq=1\nab=0:1\nnmax=360\nrmax=1\n"

    @pytest.mark.parametrize("extra", [("--format", "csv"), ("--audit",)])
    def test_over_cap_is_one_error_line_and_no_output(self, capsys, tmp_path, extra):
        grid = tmp_path / "grid.txt"
        grid.write_text(self.GRID)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "square-difference", "--grid", str(grid), *extra
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: square-difference at indices 356 needs a value of more than {DIGIT_CAP} "
            "digits (the output cap)\n"
        )

    def test_audit_checks_every_variant(self):
        report = identities.cassini(binet.make_context(sequences.fib_params(1, 1)), 2)
        huge = HybridNumber(0, 0, 0, 10**DIGIT_CAP)
        variant = report.variants[0]._replace(value=huge)
        report = report._replace(variants=(variant,))
        cli._printed_values(report, audit=False)
        with pytest.raises(ValueError, match="cassini at indices 2 needs"):
            cli._printed_values(report, audit=True)

    def test_underscore_in_a_grid_integer_is_one_error_line(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("p=1\nq=1\nnmax=1_0\n")
        code, out, err = run_cli(capsys, "verify", "--grid", str(grid))
        assert (code, out) == (2, "")
        assert err == "error: line 3: invalid nmax value '1_0': no '_' may stand inside it\n"

    def test_plain_json_prints_no_values(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text(self.GRID)
        code, out, _ = run_cli(capsys, "verify", "--suite", "square-difference", "--grid", str(grid))
        assert code == 0
        assert json.loads(out.splitlines()[-1])["summary"]["cases"] == 361


class TestBudgets:
    """Work is bounded by counting before it starts, never by timing."""

    def test_defaults_sit_well_inside(self):
        assert identities.case_count(identities.DEFAULT_GRID) * 10 <= CASE_BUDGET
        assert 3000 * 1.5 <= TERM_CAP

    @pytest.mark.parametrize("slack,code", [(0, 0), (-1, 2)])
    def test_case_budget_boundary(self, capsys, tmp_path, monkeypatch, slack, code):
        grid = tmp_path / "grid.txt"
        grid.write_text("p=1\nq=1\nab=0:1\nnmax=3\nrmax=2\n")
        cases = identities.case_count(identities.parse_grid_file(str(grid)), "catalan")
        monkeypatch.setattr(cli, "CASE_BUDGET", cases + slack)
        got, out, err = run_cli(capsys, "verify", "--suite", "catalan", "--grid", str(grid))
        assert got == code
        if code == 2:
            assert out == ""
            assert err == (
                f"error: suite 'catalan' has {cases} cases on this grid, "
                f"over the case budget of {cases - 1}\n"
            )

    def test_over_budget_grid_does_no_work(self, capsys, tmp_path, monkeypatch):
        grid = tmp_path / "grid.txt"
        grid.write_text("nmax=100000\n")

        def refuse(*args, **kwargs):
            raise AssertionError("run_suite ran on a grid over the budget")

        monkeypatch.setattr(identities, "run_suite", refuse)
        code, out, err = run_cli(capsys, "verify", "--grid", str(grid))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "over the case budget" in err

    @pytest.mark.parametrize("slack,code", [(0, 0), (-1, 2)])
    def test_term_cap_boundary(self, capsys, monkeypatch, slack, code):
        monkeypatch.setattr(cli, "TERM_CAP", 8 + slack)
        got, out, err = run_cli(capsys, "expand", "--p", "1", "--q", "1", "--terms", "8")
        assert got == code
        if code == 2:
            assert out == ""
            assert err == "error: --terms 8 is over the term cap of 7\n"

    def test_over_cap_expand_does_no_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("check_expansion ran past the term cap")

        monkeypatch.setattr(genfunc, "check_expansion", refuse)
        code, out, err = run_cli(
            capsys, "expand", "--p", "1", "--q", "1", "--terms", str(TERM_CAP + 1)
        )
        assert (code, out) == (2, "")
        assert err == f"error: --terms {TERM_CAP + 1} is over the term cap of {TERM_CAP}\n"


class TestExpand:
    def test_matches_sequence(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--p", "1", "--q", "1", "--terms", "8"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 9
        assert all(line["matches_seq"] for line in lines)
        assert lines[5]["coeff"] == {"s": "5", "i": "8", "e": "13", "h": "21"}

    def test_perturbed_coefficient_fails_at_that_index(self, capsys, monkeypatch):
        series = genfunc.expand

        def perturbed(params, terms):
            expansion = series(params, terms)
            coeffs = list(expansion.coeffs)
            coeffs[11] = coeffs[11] + HybridNumber(0, 1, 0, 0)
            return genfunc.SeriesExpansion(expansion.params, tuple(coeffs))

        monkeypatch.setattr(genfunc, "expand", perturbed)
        code, out, _ = run_cli(capsys, "expand", "--p", "2", "--q", "3", "--terms", "30")
        assert code == 1
        matches = [json.loads(line)["matches_seq"] for line in out.splitlines()]
        assert len(matches) == 31
        assert [r for r, ok in enumerate(matches) if not ok] == [11]


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "cassini")
        assert code == 0
        lines = out.splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["suite"] == "cassini"
        assert summary["all_authoritative_pass"] is True
        assert summary["verdicts"]["all-fail"] == 0

    def test_audit_includes_variants(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "diag-commutator", "--audit"
        )
        assert code == 0
        cases = [json.loads(line) for line in out.splitlines()[:-1]]
        flagged = [c for c in cases if c["verdict"] == "printed-fails-variant-passes"]
        assert flagged
        sample = flagged[0]
        labels = {v["label"]: v for v in sample["variants"]}
        assert not labels["printed"]["pass"]
        assert labels["sign-corrected"]["pass"] and labels["sign-corrected"]["authoritative"]
        assert "lhs" in sample

    def test_missing_grid_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--grid", "/nonexistent/grid.txt")
        assert code == 2 and "error" in err

    def test_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("p=1\nq=1\nab=0:1\nnmax=3\nrmax=2\n")
        code, out, _ = run_cli(capsys, "verify", "--suite", "catalan", "--grid", str(grid))
        assert code == 0
        summary = json.loads(out.splitlines()[-1])["summary"]
        # m in [0,3] with r <= min(m,2) gives 9 cases, plus 5*3 extended probes
        assert summary["cases"] == 9 + 15

    def test_bad_grid_config(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("q=0\n")
        code, _, err = run_cli(capsys, "verify", "--grid", str(grid))
        assert code == 2

    @pytest.mark.parametrize(
        "grid_text,suite",
        [
            ("p=\n", "all"),  # no p values
            ("ab=\n", "all"),  # no seed pairs
            ("p=2\nq=-1\n", "all"),  # the only (p, q) pair has p²+4q = 0
            ("p=1,2\np=3\n", "all"),  # repeated key
            ("nmax=0\n", "cassini"),  # 200 extended-domain probes, none gated
        ],
    )
    def test_vacuous_or_ambiguous_grid_is_usage_error(self, capsys, tmp_path, grid_text, suite):
        grid = tmp_path / "grid.txt"
        grid.write_text(grid_text)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--grid", str(grid))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_vacuity_is_decided_before_any_case(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a case ran on a grid with no gated case")

        grid = tmp_path / "grid.txt"
        grid.write_text("nmax=0\n")
        monkeypatch.setattr(identities, "cassini", refuse)
        code, out, err = run_cli(capsys, "verify", "--suite", "cassini", "--grid", str(grid))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: nothing to verify")

    @pytest.mark.parametrize("extra,streams", [((), True), (("--format", "csv"), False),
                                               (("--audit",), False)])
    def test_plain_lines_stream_and_value_lines_are_held(self, monkeypatch, extra, streams):
        # counted, not timed: the lines on stdout each time a case starts
        out = io.StringIO()
        lines_at_call = []
        verifier = identities.cassini

        def watched(*args, **kwargs):
            lines_at_call.append(out.getvalue().count("\n"))
            return verifier(*args, **kwargs)

        monkeypatch.setattr(identities, "cassini", watched)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["verify", "--suite", "cassini", *extra]) == 0
        cases = identities.case_count(identities.DEFAULT_GRID, "cassini")
        assert len(lines_at_call) == cases
        if streams:  # the first line is out before the second case runs, and so on
            assert lines_at_call == list(range(cases))
        else:  # nothing is out before the last case has run
            assert lines_at_call == [0] * cases
        assert out.getvalue().count("\n") == cases + 1

    def test_audit_with_csv_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "cassini", "--format", "csv", "--audit"
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "fermat")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "adjacent-commutator", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "identity,p,q,a,b,indices,extended,verdict,lhs_s,lhs_i,lhs_e,lhs_h"
        assert all(line.split(",")[0] == "adjacent-commutator" for line in lines[1:])

    def test_determinism_double_invocation(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "square-difference", "--audit")
        _, second, _ = run_cli(capsys, "verify", "--suite", "square-difference", "--audit")
        assert first == second


@pytest.mark.parametrize("command", sorted(GOLDEN_DIGESTS))
def test_golden_stdout_digest(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_DIGESTS[command]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hybridseq", "seq", "--p", "1", "--q", "1",
             "--from", "0", "--to", "0", "--kind", "scalar"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == '{"n":0,"value":"0"}'

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hybridseq"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [
        "table",
        "seq --p 1 --q 1 --to 300",
        "binet --p 2 --q -3 --from -20 --to 60 --format csv",
        "char 1/2,3,-4,5",
        "expand --p 1 --q 1 --terms 40",
        "verify --suite cassini",
        "seq --p 1 --q 1 --from 20570 --to 20600 --kind scalar",  # over the cap: exit 2
        "seq --p x --q 1",  # an argparse error: usage and exit 2
    ])
    def test_same_streams_as_in_process_main(self, capsys, argv):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        try:
            code = main(argv.split())
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
        # the heap is frozen only by the module entry point, never by main
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
        captured = capsys.readouterr()
        for unbuffered in ("1", None):  # blocks give the same bytes either way
            env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
            if unbuffered:
                env["PYTHONUNBUFFERED"] = unbuffered
            proc = subprocess.run(
                [sys.executable, "-m", "hybridseq", *argv.split()],
                capture_output=True, env=env,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                code, captured.out.encode(), captured.err.encode()
            )


class _CountingStdout(io.StringIO):
    """A stream that records the length of each write call."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[int] = []

    def write(self, text: str) -> int:
        self.writes.append(len(text))
        return super().write(text)


class TestBlockWrites:
    """Windows and held verify lines go out in blocks: counted, not timed."""

    @pytest.mark.parametrize("argv,lines", [
        ("seq --p 1 --q 1 --to 5000", 5001),
        ("binet --p 1 --q 1 --to 2000", 2001),
        ("expand --p 1 --q 1 --terms 600", 601),
        ("verify --format csv", 17531),
        ("verify --suite docagne --audit", 4481),
    ])
    def test_one_write_per_block(self, monkeypatch, argv, lines):
        out = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv.split()) == 0
        text = out.getvalue()
        size = len(text.encode())
        assert text.count("\n") == lines and size > 2 * cli.BLOCK
        assert len(out.writes) <= -(-size // cli.BLOCK) + 1
        assert max(out.writes) <= cli.BLOCK

    def test_binet_divergence_line_follows_the_lines_before_it(self, monkeypatch):
        closed_form = binet.binet_window
        bad = 1500

        def perturbed(ctx, lo, hi):
            return [z + HybridNumber(0, 0, 1, 0) if n == bad else z
                    for n, z in enumerate(closed_form(ctx, lo, hi), lo)]

        monkeypatch.setattr(binet, "binet_window", perturbed)
        shared = io.StringIO()  # stdout and stderr in one buffer
        monkeypatch.setattr(sys, "stdout", shared)
        monkeypatch.setattr(sys, "stderr", shared)
        assert main(["binet", "--p", "1", "--q", "1", "--to", "2000"]) == 1
        text = shared.getvalue()
        assert text.index('"error"') > cli.BLOCK  # more than a block of lines before it
        lines = [json.loads(line) for line in text.splitlines()]
        assert [(line["n"], "error" in line) for line in lines] == [
            (n, n == bad) for n in range(2001)
        ]
