"""Fuzzing the CLI contract in process.

Whatever the arguments, ``cli.main`` ends in one of three ways: exit 0 or 1
with its output, or exit 2 with empty stdout.  A nonzero exit writes
exactly one stderr line, starting ``error:``, and no traceback; a second
run gives the same streams.

Most values are well formed, and one in ten is huge, negative or
malformed, so that both ends of the contract are reached.  The work of
each example is bounded by count, never by time: windows of at most 64
lines, at most 60 series terms, |index| ≤ 10⁴ only with |p|, |q| ≤ 2, and
grids of at most eight parameter sets with nmax ≤ 6.  Huge p and q stay
near index 0, because nothing yet bounds the size of a value before it is
computed.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from hybridseq import SUITES
from hybridseq.cli import build_parser, main, parse_canonical

MALFORMED = ["1_0", "0x10", " 1 ", "1 0", "nan", "inf", "", "x", "1e3", "2.0", "--", "+-1",
             "9" * 4301, "١٢"]
malformed = st.sampled_from(MALFORMED)


@st.composite
def _or_bad(draw, good, bad=malformed):
    """A draw from ``good`` nine times in ten, otherwise from ``bad``."""
    return draw(bad if draw(st.integers(0, 9)) == 0 else good)


def _number(low: int, high: int):
    return _or_bad(st.integers(low, high).map(str))


def _option(*choices: list[str], bad: list[str]):
    return _or_bad(st.sampled_from([[], *choices]), st.just(bad))


HUGE = 10**40


@st.composite
def window_args(draw, command: str) -> list[str]:
    if draw(st.booleans()):  # far indices, small coefficients
        coeff, start = 2, draw(st.integers(-10**4, 10**4))
    else:  # huge coefficients, near 0
        coeff, start = HUGE, draw(st.integers(-64, 64))
    stop = start + draw(st.integers(-2, 63))
    argv = [command, "--p", draw(_number(-coeff, coeff)), "--q", draw(_number(-coeff, coeff)),
            "--from", draw(_number(start, start)), "--to", draw(_number(stop, stop))]
    for flag in ("--a", "--b"):
        if draw(st.booleans()):
            argv += [flag, draw(_number(-HUGE, HUGE))]
    argv += draw(_option(["--seq", "fib"], ["--seq", "lucas"], bad=["--seq", "pell"]))
    argv += draw(_option(["--format", "csv"], bad=["--format", "xml"]))
    if command == "seq":
        argv += draw(_option(["--kind", "scalar"], bad=["--kind", "vector"]))
    return argv


@st.composite
def expand_args(draw) -> list[str]:
    coeff = HUGE if draw(st.booleans()) else 9
    terms = _or_bad(st.integers(0, 60).map(str), st.sampled_from(["-3", str(10**30), *MALFORMED]))
    argv = ["expand", "--p", draw(_number(-coeff, coeff)), "--q", draw(_number(-coeff, coeff)),
            "--terms", draw(terms)]
    return argv + draw(_option(["--format", "csv"], ["--a", "3", "--b", "-2"], bad=["--a"]))


rational_text = _or_bad(
    st.one_of(st.fractions(max_denominator=10**6).map(lambda v: f"{v.numerator}/{v.denominator}"),
              st.integers(-10**30, 10**30).map(str),
              st.sampled_from(["1e-400", "1e400", "0.5", "-.25e3", "1e-5", "2E2"])),
    st.sampled_from(["1e5000", "1e-700", "1/0", "0/0", "1e4000000", "1 / 2", *MALFORMED]),
)


@st.composite
def char_args(draw) -> list[str]:
    count = draw(_or_bad(st.just(4), st.sampled_from([3, 5])))
    components = draw(st.lists(rational_text, min_size=count, max_size=count))
    return ["char", ",".join(components), *draw(_option(["--format", "csv"], bad=["--x"]))]


def _values(key: str, good) -> st.SearchStrategy[str]:
    return st.lists(_or_bad(good), min_size=1, max_size=2).map(lambda v: f"{key}={','.join(v)}")


@st.composite
def grid_bytes(draw) -> bytes:
    """A grid of at most 2·2·2 parameter sets, nmax ≤ 6 and rmax ≤ 4, with a
    bad value, a junk line or bytes that are not UTF-8 now and then."""
    lines = [draw(_values("p", st.integers(-3, 3).map(str))),
             draw(_values("q", st.sampled_from(["-2", "-1", "1", "2"]))),
             draw(_values("ab", st.sampled_from(["0:1", "2:p", "1:1", "p:3"]))),
             f"nmax={draw(_number(0, 6))}", f"rmax={draw(_number(0, 4))}"]
    lines = draw(st.permutations(lines))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, 5)), draw(st.sampled_from(
            ["pmax=3", "p", "=", "p=1", "nmax=-1", "q=0", "ab=01", "ab=1:2:3", "p="])))
    text = "\n".join(["# fuzz", *lines]).encode()
    if draw(st.integers(0, 9)) == 0:
        text += draw(st.sampled_from([b"\xff", b"p=1\x80\n", b"\xc3("]))
    return text


def _agrees(argv: list[str]) -> bool:
    """Whether the table parse takes argv; if it does, it must give what
    argparse gives."""
    found = parse_canonical(argv)
    if found is not None:
        assert found == vars(build_parser().parse_args(argv)), argv
    return found is not None


def _check(capsys, argv: list[str]) -> None:
    event("table parse" if _agrees(argv) else "argparse")
    runs = []
    for _ in range(2):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
    (code, out, err), again = runs
    event(f"exit {code}")  # shown by --hypothesis-show-statistics
    assert again == runs[0], argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code:
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    if code == 2:
        assert out == "", argv


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("command", ["seq", "binet"])
@FUZZ
@given(data=st.data())
def test_window_commands(capsys, command, data):
    _check(capsys, data.draw(window_args(command)))


@FUZZ
@given(argv=expand_args())
def test_expand(capsys, argv):
    _check(capsys, argv)


@FUZZ
@given(argv=char_args())
def test_char(capsys, argv):
    _check(capsys, argv)


@FUZZ
@given(grid=grid_bytes(), suite=_or_bad(st.sampled_from(["all", *SUITES]), st.just("fermat")),
       extra=_option(["--format", "csv"], ["--audit"], bad=["--audit", "--format", "csv"]))
def test_verify_grid(capsys, tmp_path_factory, grid, suite, extra):
    path = tmp_path_factory.getbasetemp() / "fuzz.grid"
    path.write_bytes(grid)
    _check(capsys, ["verify", "--grid", str(path), "--suite", suite, *extra])


@FUZZ
@given(argv=st.lists(st.sampled_from(["table", "seq", "verify", "--p", "1", "--q", "-x", "--help2",
                                      "--from", "--grid", "/nonexistent/grid", "binet", "0"]),
                     max_size=6))
def test_any_token_sequence(capsys, argv):
    _check(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["seq", "--p", "1", "--q", "1", "--fo", "csv"],  # an abbreviation
    ["seq", "--p=1", "--q", "1"],
    ["seq", "--p", "1", "--p", "2", "--q", "1"],  # a repeated flag: argparse keeps the last
    ["verify", "--audit", "--audit"],
    ["verify", "--grid", "-h"],
    ["verify", "--grid", "-5"],
    ["seq", "--p", "1", "--q", "1", "--"],
    ["seq", "--", "--p", "1", "--q", "1"],
    ["seq", "--p", "-١", "--q", "1"],  # argparse reads it as a negative number
    ["seq", "--p", "-²", "--q", "1"],  # and this as an unknown option
    ["seq", "--p", " 3", "--q", "1"],
    ["seq", "--p", "-3 ", "--q", "1"],
    ["char", "-1,2,3,4"],  # a component that starts with "-"
    ["char", "-1"],
    ["char", " -1,2,3,4"],
    ["char", ""],
    ["char", "1,2,3,4", "5"],
    ["table", "-5"],
    ["verify", "--suite", "-5"],
    ["seq", "--p", "1", "--q"],
    ["seq", "--p", "1", "--q", "1", "--kind", "vector"],
    ["seq", "--p", "1"],
    ["seq", "--h"],
    ["-h"],
    [],
])
def test_table_parse_declines_or_agrees(capsys, argv):
    try:
        _agrees(argv)
    except SystemExit:  # argparse refused what the table parse accepted
        pytest.fail(f"argparse refuses {argv}")


@pytest.mark.parametrize("argv", [
    "table",
    "seq --p -2 --q 3 --a 3 --b -1 --from -80 --to 50 --kind scalar --seq lucas --format csv",
    "binet --format csv --to 9 --q -1 --p 1",
    "char 1/2,3,-4,5 --format csv",
    "char --format csv -5",
    "expand --p 1 --q 1 --terms 40",
    "verify --suite cassini --audit --grid g",
])
def test_canonical_argv_is_parsed_by_the_table(argv):
    found = parse_canonical(argv.split())
    assert found is not None and found == vars(build_parser().parse_args(argv.split()))
