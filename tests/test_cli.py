"""Tests for the command-line interface: schemas, exit codes, determinism."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

from hybridseq import (
    HybridNumber, QuadExt, binet, cli, genfunc, identities, parse_rational, sequences,
)
from hybridseq.cli import CASE_BUDGET, DIGIT_CAP, TERM_CAP, _over_cap, main

from helpers import count_seqcache_reads

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
    # recorded while char still wrote through json.dumps and print: a float
    # field, magnitudes near both ends of the float range, and csv
    "char 1,2,3,4":
        "f2a1a4a5a4a6de97a648cb01660c953ecee5b591461b1c71ca227aa5f9a60001",
    "char 1/3,-2,0.5,7 --format csv":
        "639ddf73217e2dfaf10b1e5211695295faeed91522db1d6bf57fb7da5a819320",
    "char 1e300,0,0,0":
        "07be1faaa983e76d97cfe41ad5d3aa1ed274865eda4130d0317cc1c8ded49ff5",
    "char 1e-200,0,0,0":
        "3b7a77d795ea725c36ac3ad4ea13c3055a92f26e906949e1f23951355b115c82",
    "char 0,1,1,0 --format csv":
        "3739327a07c4ba0d95b2daa6b059add3934fffee0d4da2398e6a607bb969d019",
}


def _buffered_env() -> dict[str, str]:
    """The environment without PYTHONUNBUFFERED: stdout to a pipe is buffered."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own exits: a usage error, or --help
        code = exc.code
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
            z = HybridNumber(*map(parse_rational, payload["hybrid"].values()))
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
        assert err == (  # the exact bytes, recorded while the line came from json.dumps
            '{"n":37,"error":"binet/recurrence divergence",'
            '"binet":{"s":"-336787691","i":"-809473642","e":"-608584210","h":"1211252504"},'
            '"recurrence":{"s":"-336787691","i":"-809473642","e":"-608584211","h":"1211252504"}}\n'
        )
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
        assert err == (  # the exact bytes, recorded while the line came from json.dumps
            '{"n":5,"error":"binet/recurrence divergence",'
            '"recurrence":{"s":"5","i":"8","e":"13","h":"21"}}\n'
        )
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

    def test_one_window_read_and_no_hybrid_read(self, capsys, monkeypatch):
        # the recurrence side is the cap-checked window the lines print from,
        # X_-20 … X_63, filled in chunks of 1, 2, 4, …, 32 values and the last
        # 21 (seven reads); the closed form reads no window
        params = sequences.HoradamParams(2, -3, 1, 4)
        reads = count_seqcache_reads(monkeypatch)
        code, out, _ = run_cli(capsys, "binet", "--p", "2", "--q", "-3", "--a", "1", "--b", "4",
                               "--from", "-20", "--to", "60")
        assert (code, len(out.splitlines())) == (0, 81)
        assert reads == {("window", params): 7}

    def test_one_power_per_window(self, capsys, monkeypatch):
        # make_context takes none: one power of α for the whole walk
        powers = []
        original_pow = QuadExt.__pow__

        def counting_pow(self, exponent):
            powers.append(exponent)
            return original_pow(self, exponent)

        monkeypatch.setattr(QuadExt, "__pow__", counting_pow)
        code, out, _ = run_cli(capsys, "binet", "--p", "1", "--q", "1", "--from", "-7", "--to", "499")
        assert code == 0
        assert len(out.splitlines()) == 507
        assert powers == [-7]


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

    @pytest.mark.parametrize("components,refused", [
        ("1e4000000,0,0,0", "1e4000000"),  # a 4,000,001-digit numerator, never built
        ("1e5000,1e5000,1e5000,0", "1e5000"),  # character 0, but each component is over
        ("1,2,3,1e-4300", "1e-4300"),
    ])
    def test_component_over_the_digit_cap_is_refused(self, capsys, components, refused):
        code, out, err = run_cli(capsys, "char", components)
        assert (code, out) == (2, "")
        assert err == f"error: invalid rational {refused!r}: more than {DIGIT_CAP} digits " \
                      "(the digit cap)\n"

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


# requests over the output cap: (argv, and the index name and index the error names)
OVER_CAP_REQUESTS = [
    (("seq", "--p", "1", "--q", "1", "--from", "20570", "--to", "20600",
      "--kind", "scalar"), "n", 20578),
    (("seq", "--p", "1", "--q", "1", "--from", "20560", "--to", "20600",
      "--format", "csv"), "n", 20575),
    (("seq", "--p", "1", "--q", "2", "--from", "-14300", "--to", "-14280",
      "--kind", "scalar"), "n", -14300),
    # only the denominator, 3⁹¹⁰⁰ (4,342 digits), passes the cap; the numerator has 2,171
    (("seq", "--p", "1", "--q", "-3", "--from", "-9100", "--to", "-9090",
      "--kind", "scalar"), "n", -9100),
    (("binet", "--p", "1", "--q", "1", "--from", "21000", "--to", "21001"), "n", 21000),
    (("expand", "--p", str(10**30), "--q", "1", "--terms", "200"), "r", 142),
]


class TestDigitCap:
    """Windows over the documented output cap are rejected before any output."""

    @pytest.mark.parametrize("argv,name,index", OVER_CAP_REQUESTS)
    def test_over_cap_is_one_error_line_and_no_output(self, capsys, argv, name, index):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {name}={index} needs a value of more than {DIGIT_CAP} digits "
            "(the output cap)\n"
        )

    # windows far past the cap: (argv, the n of the error line, and the offset
    # k in the window of its first over-cap value: F_20578 has 4,301 digits,
    # and the denominator of X_-1500 is 1000^1500)
    @pytest.mark.parametrize("argv,index,k", [
        (("seq", "--p", "1", "--q", "1", "--to", "60000", "--kind", "scalar"), 20578, 20578),
        (("seq", "--p", "1", "--q", "1000", "--from", "-1500", "--to", "0", "--kind", "scalar"),
         -1500, 0),
    ])
    def test_over_cap_window_is_refused_as_it_fills(self, capsys, monkeypatch, argv, index, k):
        # a window fills in chunks of 1, 2, 4, … values, each checked before the
        # next is made, so at most 2·(k + 1) values are made, not the whole window
        made = []
        window = sequences.SeqCache.window

        def counted(self, lo, hi):
            made.append(hi - lo + 1)
            return window(self, lo, hi)

        monkeypatch.setattr(sequences.SeqCache, "window", counted)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: n={index} needs a value of more than {DIGIT_CAP} digits (the output cap)\n"
        assert sum(made) <= 2 * (k + 1)

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

    def test_over_cap_expand_is_refused_before_any_binomial_sum(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a binomial sum ran before the window's cap check")

        monkeypatch.setattr(genfunc, "binomial_series_coeff", refuse)
        code, out, err = run_cli(
            capsys, "expand", "--p", str(10**12), "--q", "1", "--terms", "1500"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: r=357 needs a value of more than {DIGIT_CAP} digits (the output cap)\n"
        )

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
        huge = HybridNumber(0, 0, 0, 10**DIGIT_CAP), 1  # a value as (N, den)
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
        assert err == (
            "error: line 3: invalid nmax value '1_0': no '_' or blank may stand inside it\n"
        )

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

    @pytest.mark.parametrize("suite", ["all", "cassini", "adjacent-commutator"])
    def test_a_grid_of_degenerate_pairs_names_the_missing_parameter_sets(self, capsys, tmp_path,
                                                                       suite):
        # 0 cases: no case is a probe, so the reason is that no parameter set exists
        grid = tmp_path / "grid.txt"
        grid.write_text("p=-2,2\nq=-1\n")
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--grid", str(grid))
        assert (code, out) == (2, "")
        assert err == ("error: nothing to verify: the grid has no parameter set "
                       "(every (p, q) pair has p²+4q = 0)\n")

    @pytest.mark.parametrize("extra,streams", [((), True), (("--format", "csv"), False),
                                               (("--audit",), False)])
    def test_plain_lines_stream_and_value_lines_are_held(self, monkeypatch, extra, streams):
        # counted, not timed: the characters on stdout each time a case starts
        out = io.StringIO()
        out_at_call = []
        verifier = identities.docagne

        def watched(*args, **kwargs):
            out_at_call.append(len(out.getvalue()))
            return verifier(*args, **kwargs)

        monkeypatch.setattr(identities, "docagne", watched)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["verify", "--suite", "docagne", *extra]) == 0
        cases = identities.case_count(identities.DEFAULT_GRID, "docagne")
        lines = out.getvalue().splitlines(keepends=True)
        assert len(out_at_call) == cases and len(lines) == cases + 1
        if streams:  # when case k starts, less than a block of lines 0 … k−1 is still held
            done = [0, *accumulate(map(len, lines[:-2]))]
            assert all(0 <= verified - written < cli.BLOCK
                       for verified, written in zip(done, out_at_call))
            assert out_at_call[-1] >= cli.BLOCK  # a block is out before the last case runs
        else:  # nothing is out before the last case has run
            assert out_at_call == [0] * cases

    @staticmethod
    def _fail_docagne_at(monkeypatch, call: int) -> None:
        verifier, calls = identities.docagne, []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                raise ArithmeticError(f"planted failure at call {call}")
            return verifier(*args, **kwargs)

        monkeypatch.setattr(identities, "docagne", failing)

    def test_a_failed_check_ends_stdout_with_the_lines_verified_before_it(self, capsys,
                                                                         monkeypatch):
        self._fail_docagne_at(monkeypatch, 1501)
        code, out, err = run_cli(capsys, "verify", "--suite", "docagne")
        assert (code, err) == (1, "error: planted failure at call 1501\n")
        assert (out.count("\n"), len(out), out[-1]) == (1500, 162_990, "\n")

    def test_a_failed_check_on_a_full_stdout_is_one_error_line(self, capsys, monkeypatch):
        # the lines held at the failed check cannot be written: that write's
        # error is the one reported, as when each line was written at once
        class Full(io.StringIO):
            def write(self, text: str) -> int:
                raise OSError(28, "No space left on device")

        self._fail_docagne_at(monkeypatch, 101)
        monkeypatch.setattr(sys, "stdout", Full())
        code, _, err = run_cli(capsys, "verify", "--suite", "docagne")
        assert (code, err) == (2, "error: [Errno 28] No space left on device\n")

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
        assert proc.stderr == "error: the following arguments are required: command\n"

    @pytest.mark.parametrize("outcome,code", [("return 0", 0), ("raise SystemExit(2)", 2)])
    def test_module_run_pauses_the_collector_and_exits_once_flushed(self, outcome, code):
        # the process owns the collector: off for the whole of main; once
        # stdout and stderr are flushed the process ends without the
        # interpreter's teardown, so an atexit handler never runs.  stdout is
        # buffered here, so the line arrives only through that flush.
        script = (
            "import atexit, gc, runpy, sys\n"
            "from hybridseq import cli\n"
            "def main(argv=None):\n"
            "    atexit.register(print, 'teardown ran')\n"
            "    print('collector on:', gc.isenabled())\n"
            "    sys.stderr.write('no newline')\n"
            f"    {outcome}\n"
            "cli.main = main\n"
            "runpy.run_module('hybridseq', run_name='__main__')\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=_buffered_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, "collector on: False\n", "no newline"
        )

    # how main's stdout fails: a pipe whose reader is gone, or a full device
    _FAILED_STDOUT = {
        "broken pipe": "r, w = os.pipe(); os.dup2(w, 1); os.close(r); os.close(w)",
        "full device": "os.dup2(os.open('/dev/full', os.O_WRONLY), 1)",
    }

    @pytest.mark.parametrize("failure", sorted(_FAILED_STDOUT))
    def test_a_failed_final_flush(self, failure):
        # the flush after main raises.  A reader that is gone ends the run as
        # a broken pipe in main does: exit 120, nothing on stderr.  Any other
        # failure exits the normal way, and CPython reports it as it always has
        stub = (
            "import os\n"
            "def main(argv=None):\n"
            "    print('lost')\n"
            f"    {self._FAILED_STDOUT[failure]}\n"
            "    return 0\n"
        )
        module_run = stub + (
            "import runpy\n"
            "from hybridseq import cli\n"
            "cli.main = main\n"
            "runpy.run_module('hybridseq', run_name='__main__')\n"
        )
        plain_exit = stub + "raise SystemExit(main())\n"
        run, plain = (
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=_buffered_env())
            for code in (module_run, plain_exit)
        )
        if failure == "broken pipe":
            assert (run.returncode, run.stdout, run.stderr) == (120, "", "")
        else:
            assert (run.returncode, run.stdout, run.stderr) == (
                plain.returncode, plain.stdout, plain.stderr
            )
            assert run.returncode == 120 and "OSError" in run.stderr

    @pytest.mark.parametrize("argv", [
        "table", "seq --p 1 --q 1", "binet --p 1 --q 1", "char 1,2,3,4",
        "expand --p 1 --q 1", "verify --suite cassini",
    ])
    def test_closed_stdout_drops_the_output(self, argv):
        # with file descriptor 1 closed Python sets sys.stdout to None: the
        # command still runs and exits as usual, and writes nowhere
        proc = subprocess.run(["sh", "-c", f'exec "$0" -m hybridseq {argv} >&-', sys.executable],
                              capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")

    @pytest.mark.parametrize("unbuffered", ["1", None])
    @pytest.mark.parametrize("argv,code,err", [
        ("seq --p 1 --q 1 --to 20000", 120, None),  # a write fails mid-window
        ("table", 120, None),  # short: with stdout buffered, the final flush fails
        ("verify", 120, None),  # a streamed case line fails
        ("verify --grid /nonexistent", 2, "error: [Errno 2] No such file or directory"),
    ])
    def test_a_gone_reader_ends_with_exit_120(self, unbuffered, argv, code, err):
        # stdout is a pipe whose read end is closed before the child starts:
        # every write to it fails with EPIPE, which is no usage error
        env = _buffered_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "hybridseq", *argv.split()],
                                  stdout=write, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if err is None:
            assert proc.stderr == ""
        else:
            assert proc.stderr.startswith(err) and proc.stderr.count("\n") == 1

    def test_console_script_runs_the_module_entry_point(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        if sys.version_info >= (3, 11):
            import tomllib

            target = tomllib.loads(text)["project"]["scripts"]["hybridseq"]
        else:
            target = re.search(r'^hybridseq = "(.*)"$', text, re.MULTILINE)[1]
        assert target == "hybridseq.__main__:run"
        from hybridseq.__main__ import run

        assert callable(run)

    @pytest.mark.parametrize("argv", ["table", "seq --p x --q 1"])
    def test_cli_module_runs_as_the_package_does(self, argv):
        package, module = (
            subprocess.run([sys.executable, "-m", name, *argv.split()], capture_output=True)
            for name in ("hybridseq", "hybridseq.cli")
        )
        assert package.stdout or package.stderr
        assert (module.returncode, module.stdout, module.stderr) == (
            package.returncode, package.stdout, package.stderr
        )

    @pytest.mark.parametrize("argv", [
        "table",
        "seq --p 1 --q 1 --to 300",
        "binet --p 2 --q -3 --from -20 --to 60 --format csv",
        "char 1/2,3,-4,5",
        "expand --p 1 --q 1 --terms 40",
        "verify --suite cassini",
        "seq --p 1 --q 1 --from 20570 --to 20600 --kind scalar",  # over the cap: exit 2
        "seq --p x --q 1",  # an argparse error: one line and exit 2
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
            env = _buffered_env()
            if unbuffered:
                env["PYTHONUNBUFFERED"] = unbuffered
            proc = subprocess.run(
                [sys.executable, "-m", "hybridseq", *argv.split()],
                capture_output=True, env=env,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                code, captured.out.encode(), captured.err.encode()
            )


# every integer flag of every command, with the flags the command needs
INTEGER_FLAGS = [(command, flag) for command in ("seq", "binet", "expand")
                 for flag in ("--p", "--q", "--a", "--b")]
INTEGER_FLAGS += [("seq", "--from"), ("seq", "--to"), ("binet", "--from"), ("binet", "--to"),
                  ("expand", "--terms")]


def _with_flag(command: str, flag: str, value: str) -> list[str]:
    flags = {"--p": "1", "--q": "1", flag: value}
    return [command, *(token for pair in flags.items() for token in pair)]


class TestIntegerFlags:
    """Integer flags follow the wire format of grid files and char (argparse's
    int read "--p 1_0" as p = 10)."""

    @pytest.mark.parametrize("command,flag", INTEGER_FLAGS)
    @pytest.mark.parametrize("value,reason", [
        ("1_0", ": no '_' or blank may stand inside it"),
        ("1 0", ": no '_' or blank may stand inside it"),
        ("x", ""), ("0x10", ""), ("1e3", ""), ("2.0", ""),
    ])
    def test_refusal_is_one_error_line(self, capsys, command, flag, value, reason):
        code, out, err = run_cli(capsys, *_with_flag(command, flag, value))
        assert (code, out) == (2, "")
        assert err == f"error: argument {flag}: invalid integer {value!r}{reason}\n"

    @pytest.mark.parametrize("command,flag", INTEGER_FLAGS)
    def test_blanks_around_a_value_are_allowed(self, capsys, command, flag):
        value = {"--q": " 2 ", "--from": " 3 ", "--terms": " 3 "}.get(flag, " 3")
        code, out, _ = run_cli(capsys, *_with_flag(command, flag, value))
        expected = run_cli(capsys, *_with_flag(command, flag, value.strip()))
        assert (code, out) == expected[:2] and code == 0 and out


# sha256 of every help text at 80 columns, recorded (the same on Python 3.10
# to 3.13) while each command's parser was still written out by hand
HELP_DIGESTS = {
    "--help": "4849e7c2df8cf35cbce24add36caa19fd72a243bae78cb28a60be79fafdffdf1",
    "-h": "4849e7c2df8cf35cbce24add36caa19fd72a243bae78cb28a60be79fafdffdf1",
    "table --help": "2d31a0aef83d58ef8328573df88e17aa63edffad3f7d8b94457fc4f8deae71cd",
    "seq --help": "90a9e519f35e1447a40532f2da997745d034e44ca32ec5d6878f508c624aa39c",
    "binet --help": "15f9de45d2d16072fd130d38f313e432993d33ca277d6458dea435b498031a11",
    "char --help": "e2b61a7a8371a64f5494832687b352e0e4420a1643bf1f69dee97cc294f5ecd3",
    "expand --help": "fa78b40b88e7a0115647e5c1b09d2c363506c1de95a472b3a9a81f843d9cc0ec",
    "verify --help": "ee64cd342c20086f178d7dde2fdbac79efbbd4e2af5a0b7d9c96750333475c7c",
}


class TestParserErrors:
    @pytest.mark.parametrize("argv", [
        "", "fermat", "seq --q 1", "table --x 1", "seq --p 1 --q 1 --kind vector",
        "seq --p 1 --q 1 --from", "verify --format xml", "char",
    ])
    def test_one_error_line_and_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_help_is_unchanged(self, capsys):
        code, out, err = run_cli(capsys, "seq", "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: hybridseq seq [-h] --p P --q Q [--a A] [--b B]")
        assert "--p P" in out and "recurrence coefficient q (nonzero)" in out

    @pytest.mark.parametrize("argv", sorted(HELP_DIGESTS))
    def test_help_text_digest(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_DIGESTS[argv]


class _CountingStdout(io.StringIO):
    """A stream that records the length of each write call."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[int] = []

    def write(self, text: str) -> int:
        self.writes.append(len(text))
        return super().write(text)


class TestBlockWrites:
    """Every command's lines go out in blocks: counted, not timed."""

    @pytest.mark.parametrize("argv,lines", [
        ("seq --p 1 --q 1 --to 5000", 5001),
        ("binet --p 1 --q 1 --to 2000", 2001),
        ("expand --p 1 --q 1 --terms 600", 601),
        ("verify --format csv", 17531),
        ("verify --suite docagne --audit", 4481),
        ("verify", 17531),
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
