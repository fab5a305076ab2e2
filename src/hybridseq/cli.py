"""Command-line front end with machine-readable (JSON lines / CSV) output.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.  Output is deterministic: identical arguments produce byte-identical
streams.
"""

from __future__ import annotations

import sys
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import SEQ_KINDS, SUITES
from .exactarith import DIGIT_CAP, format_rational, parse_integer, parse_rational
from .hybrid import BASIS_LABELS, HybridNumber, basis_table, format_basis_product

if TYPE_CHECKING:
    from argparse import ArgumentParser, Namespace
    from fractions import Fraction

    from .identities import VerificationReport
    from .sequences import HoradamParams

USAGE_ERROR = 2
VERIFY_ERROR = 1

# Output over DIGIT_CAP digits is a usage error, found by counting bits first.
_CAP_POW = 10**DIGIT_CAP
_CAP_BITS = _CAP_POW.bit_length()
# Work budgets, counted before any work; each is about 10 s at the limit.
CASE_BUDGET = 250_000  # verify: cases on the grid for the chosen suite
TERM_CAP = 5_000  # expand: last series index
# Characters per stdout write (all ASCII): every line goes out in blocks of
# this size, so long output is a few system calls even when stdout is unbuffered.
BLOCK = 1 << 16

# One fixed template per output line; every field is an int, a float's repr,
# a rational string of digits, "-" and "/", or a fixed ASCII name (suite,
# verdict, variant label, sign class), so no JSON escaping is ever needed.
_HYB = '{"s":"%s","i":"%s","e":"%s","h":"%s"}'
_BOOL = ("false", "true")  # JSON's booleans, indexed by a bool
_SEQ_LINES = {  # (kind, format) -> (header, line)
    ("scalar", "json"): ("", '{"n":%d,"value":"%s"}\n'),
    ("scalar", "csv"): ("n,value\n", "%d,%s\n"),
    ("hybrid", "json"): ("", '{"n":%d,"hybrid":' + _HYB + "}\n"),
    ("hybrid", "csv"): ("n,s,i,e,h\n", "%d,%s,%s,%s,%s\n"),
}
_BINET_LINES = {
    "json": ("", '{"n":%d,"hybrid":' + _HYB + ',"method":"binet"}\n'),
    "csv": ("n,s,i,e,h,method\n", "%d,%s,%s,%s,%s,binet\n"),
}
_EXPAND_LINES = {
    "json": ("", '{"r":%d,"coeff":' + _HYB + ',"matches_seq":%s}\n'),
    "csv": ("r,s,i,e,h,matches_seq\n", "%d,%s,%s,%s,%s,%s\n"),
}
_CHAR_LINES = {  # a float field is %r, which is what json.dumps writes
    "json": ("", '{"character":"%s","norm_value":%r,"norm_class":"%s"}\n'),
    "csv": ("character,norm_value,norm_class\n", "%s,%r,%s\n"),
}
# binet's stderr line, which leaves out a closed form with a value over the cap
_DIVERGENCE = '{"n":%d,"error":"binet/recurrence divergence",%s"recurrence":' + _HYB + "}"
_DIVERGENT_BINET = '"binet":' + _HYB + ","
_CASE = (
    '{"identity":"%s","params":{"p":%d,"q":%d,"a":%d,"b":%d},"indices":[%s],'
    '"extended":%s,"verdict":"%s"'
)
_VERIFY_CASE = _CASE + "}\n"
_VERIFY_AUDIT = _CASE + ',"lhs":' + _HYB + ',"variants":[%s]}\n'
_VERIFY_VARIANT = '{"label":"%s","authoritative":%s,"pass":%s,"value":' + _HYB + "}"
_VERIFY_SUMMARY = (
    '{"summary":{"suite":"%s","cases":%d,"verdicts":{"pass":%d,'
    '"printed-fails-variant-passes":%d,"all-fail":%d},"extended_cases":%d,'
    '"extended_failures":%d,"all_authoritative_pass":%s}}\n'
)
_VERIFY_CSV = (
    "identity,p,q,a,b,indices,extended,verdict,lhs_s,lhs_i,lhs_e,lhs_h\n",
    "%s,%d,%d,%d,%d,%s,%s,%s,%s,%s,%s,%s\n",
)


class _Blocks:
    """The one stdout writer and the only path to stdout: every line of every
    command goes out in blocks of BLOCK characters, one private ``_write`` per
    block; a block may end inside a line, and ``flush`` writes what is held.
    With file descriptor 1 closed, Python sets sys.stdout to None and output is dropped."""

    def __init__(self) -> None:
        self._write = len if sys.stdout is None else sys.stdout.write  # len keeps nothing
        self.lines: list[str] = []
        self.size = 0

    def __call__(self, line: str) -> None:
        self.lines.append(line)
        self.size += len(line)
        if self.size >= BLOCK:
            text = "".join(self.lines)
            cut = len(text) - len(text) % BLOCK
            for k in range(0, cut, BLOCK):
                self._write(text[k : k + BLOCK])
            self.lines, self.size = [text[cut:]], len(text) - cut

    def flush(self) -> None:
        if self.size:
            self._write("".join(self.lines))
        self.lines, self.size = [], 0


def _over_cap(value: int | Fraction) -> bool:
    """Whether a numerator or denominator has more than DIGIT_CAP digits.

    Decided by bit length, and by one comparison with 10**DIGIT_CAP for
    the lengths where bits alone cannot tell; never by rendering.
    """
    num, den = value.numerator, value.denominator
    if num.bit_length() < _CAP_BITS and den.bit_length() < _CAP_BITS:
        return False
    return abs(num) >= _CAP_POW or den >= _CAP_POW


def _cap_error(where: str) -> ValueError:
    return ValueError(f"{where} needs a value of more than {DIGIT_CAP} digits (the output cap)")


def _check_cap(values: list, start: int, width: int, name: str, offset: int = 0) -> None:
    """Refuse a window that starts at X_start and holds a value over the cap,
    where values are X_{start+offset} onward.

    Line n shows X_n … X_{n+width−1}, so the error names the first line
    that would hold such a value, as ``name``=n.
    """
    for k, value in enumerate(values, offset):
        if _over_cap(value):
            raise _cap_error(f"{name}={max(start, start + k - width + 1)}")


def _window(args: Namespace, width: int) -> tuple[HoradamParams, list]:
    """The --seq parameters and X_from … X_{to+width−1}, checked against
    the cap before any output.  The window fills in chunks of 1, 2, 4, …
    values, each checked before the next is made, so a window over the cap
    is refused after at most twice the values up to its first over-cap one."""
    from . import sequences

    params = sequences.HoradamParams(args.p, args.q, args.a, args.b)
    start, stop = args.start, args.stop
    if start > stop:
        raise ValueError("--from must not exceed --to")
    params = sequences.resolve_params(params, args.seq)
    cache, values, last = sequences.SeqCache(params), [], stop + width - 1
    while start + len(values) <= last:
        offset = len(values)
        chunk = cache.window(start + offset, min(last, start + 2 * offset))
        _check_cap(chunk, start, width, "n", offset)
        values += chunk
    return params, values


def _rendered(values: list, start: int, width: int):
    """(n, text of X_n, …, text of X_{n+width−1}) per line, where values
    starts at X_start.  Consecutive lines share width − 1 values, so each
    value is rendered once."""
    texts = [format_rational(v) for v in values[: width - 1]]
    for n, value in enumerate(values[width - 1 :], start):
        texts.append(format_rational(value))
        yield (n, *texts)
        del texts[0]


def cmd_table(args: Namespace, out: _Blocks) -> int:
    cells = [[format_basis_product(z) for z in row] for row in basis_table()]
    rows = [["×", *BASIS_LABELS]]
    rows += [[BASIS_LABELS[k], *cells[k]] for k in range(4)]
    width = max(len(cell) for row in rows for cell in row) + 2
    for row in rows:
        out("".join(cell.ljust(width) for cell in row).rstrip() + "\n")
    return 0


def cmd_seq(args: Namespace, out: _Blocks) -> int:
    width = 1 if args.kind == "scalar" else 4
    values = _window(args, width)[1]
    header, line = _SEQ_LINES[args.kind, args.format]
    out(header)
    for row in _rendered(values, args.start, width):
        out(line % row)
    return 0


def cmd_binet(args: Namespace, out: _Blocks) -> int:
    from . import binet

    params, values = _window(args, 4)
    closed = binet.binet_window(binet.make_context(params), args.start, args.stop)
    header, line = _BINET_LINES[args.format]
    out(header)
    divergence = False
    for k, (row, value) in enumerate(zip(_rendered(values, args.start, 4), closed)):
        if value != tuple(values[k : k + 4]):  # say why: both hybrids, unless over the cap
            over = any(map(_over_cap, value))  # the recurrence window is checked already
            shown = "" if over else _DIVERGENT_BINET % tuple(map(format_rational, value))
            out.flush()  # the lines before it go out first
            print(_DIVERGENCE % (row[0], shown, *row[1:]), file=sys.stderr)
            divergence = True
            continue
        out(line % row)
    return VERIFY_ERROR if divergence else 0


def cmd_char(args: Namespace, out: _Blocks) -> int:
    components = [parse_rational(tok) for tok in args.components.split(",")]
    if len(components) != 4:
        raise ValueError("expected four comma-separated rationals: s,i,e,h")
    z = HybridNumber(*components)
    norm = z.norm()
    header, line = _CHAR_LINES[args.format]
    out(header)
    out(line % (format_rational(z.character()), norm.value, norm.sign_class))
    return 0


def cmd_expand(args: Namespace, out: _Blocks) -> int:
    from . import genfunc, sequences

    params = sequences.HoradamParams(args.p, args.q, args.a, args.b)
    if args.terms > TERM_CAP:
        raise ValueError(f"--terms {args.terms} is over the term cap of {TERM_CAP}")
    # coefficient r is X_r … X_{r+3} where the expansion matches, so the
    # window is cap-checked before any binomial sum (a negative --terms is
    # left to check_expansion's error); each coefficient is checked after
    if args.terms >= 0:
        _check_cap(sequences.SeqCache(params).window(0, args.terms + 3), 0, 4, "r")
    report = genfunc.check_expansion(params, args.terms)
    coeffs = report.expansion.coeffs
    for r, coeff in enumerate(coeffs):
        if any(map(_over_cap, coeff)):
            raise _cap_error(f"r={r}")
    header, line = _EXPAND_LINES[args.format]
    out(header)
    for r, (coeff, match) in enumerate(zip(coeffs, report.matches)):
        out(line % (r, *map(format_rational, coeff), _BOOL[match]))
    return 0 if report.ok else VERIFY_ERROR


def _case_fields(report: VerificationReport, sep: str) -> tuple:
    case = report.case
    return (case.name, *case.params, sep.join(map(str, case.indices)),
            _BOOL[case.extended], report.verdict)


def _printed_values(report: VerificationReport, audit: bool) -> tuple[HybridNumber, ...]:
    """The values a csv line (the left side) or an --audit line (and each
    variant's value) prints, each reduced once and checked against the cap."""
    values = (report.lhs, *(v.value for v in report.variants)) if audit else (report.lhs,)
    if any(map(_over_cap, chain.from_iterable(values))):
        case = report.case
        raise _cap_error(f"{case.name} at indices {','.join(map(str, case.indices))}")
    return values


def _plain_line(report: VerificationReport) -> str:
    return _VERIFY_CASE % _case_fields(report, ",")


def _csv_line(report: VerificationReport) -> str:
    (lhs,) = _printed_values(report, audit=False)
    return _VERIFY_CSV[1] % (*_case_fields(report, ":"), *map(format_rational, lhs))


def _audit_line(report: VerificationReport) -> str:
    lhs, *values = _printed_values(report, audit=True)
    variants = ",".join(_VERIFY_VARIANT % (v.label, _BOOL[v.authoritative], _BOOL[v.passed],
                                           *map(format_rational, value))
                        for v, value in zip(report.variants, values))
    return _VERIFY_AUDIT % (*_case_fields(report, ","), *map(format_rational, lhs), variants)


def cmd_verify(args: Namespace, out: _Blocks) -> int:
    from . import identities

    if args.audit and args.format == "csv":
        raise ValueError("--audit needs --format json (csv has no per-variant columns)")
    config = identities.parse_grid_file(args.grid) if args.grid else identities.DEFAULT_GRID
    cases = identities.case_count(config, args.suite)
    if cases > CASE_BUDGET:
        raise identities.GridConfigError(
            f"suite {args.suite!r} has {cases} cases on this grid, "
            f"over the case budget of {CASE_BUDGET}"
        )
    if not cases:  # every row has a case on each parameter set, so there is none
        raise identities.GridConfigError(
            "nothing to verify: the grid has no parameter set "
            "(every (p, q) pair has p²+4q = 0)"
        )
    if not identities.case_count(config, args.suite, gated=True):
        raise identities.GridConfigError(
            f"nothing to verify: suite {args.suite!r} has no gated case on this grid "
            f"({cases} cases, all extended-domain probes)"
        )
    render = _csv_line if args.format == "csv" else _audit_line if args.audit else _plain_line
    held = [_VERIFY_CSV[0]] if render is _csv_line else []  # written once the run is done,
    emit = out if render is _plain_line else held.append  # so a value over the cap stops it first
    try:
        result = identities.run_suite(config, args.suite, sink=lambda report: emit(render(report)))
    except ArithmeticError:  # a failed check: the lines of the cases verified before it go out
        out.flush()
        raise
    for text in held:
        out(text)
    counts, extended, extended_failures, gate = result.tally()
    if args.format == "json":
        out(_VERIFY_SUMMARY % (result.suite, result.cases, *counts.values(), extended,
                               extended_failures, _BOOL[gate]))
    return 0 if gate else VERIFY_ERROR


# One row per flag of each command: (flag, dest, kind, default, required,
# help).  kind is int (read by parse_integer), str, a tuple of choices, or
# bool for a flag that takes no value (store_true); a flag without "--" is
# the command's positional argument.
_PQAB = (
    ("--p", "p", int, None, True, "recurrence coefficient p"),
    ("--q", "q", int, None, True, "recurrence coefficient q (nonzero)"),
    ("--a", "a", int, 0, False, "seed X_0 (default 0)"),
    ("--b", "b", int, 1, False, "seed X_1 (default 1)"),
)
_SEQ = ("--seq", "seq", SEQ_KINDS, "horadam", False, None)
_FORMAT = ("--format", "format", ("json", "csv"), "json", False, None)
COMMANDS = {  # name -> (function, help, flag rows)
    "table": (cmd_table, "print the 4×4 unit multiplication table", ()),
    "seq": (cmd_seq, "emit sequence values as JSON lines", (
        *_PQAB,
        ("--from", "start", int, 0, False, "first index"),
        ("--to", "stop", int, 10, False, "last index (inclusive)"),
        ("--kind", "kind", ("scalar", "hybrid"), "hybrid", False, None),
        _SEQ, _FORMAT,
    )),
    "binet": (cmd_binet, "emit closed-form values, checked against the recurrence", (
        *_PQAB,
        ("--from", "start", int, 0, False, None),
        ("--to", "stop", int, 10, False, None),
        _SEQ, _FORMAT,
    )),
    "char": (cmd_char, "character, norm magnitude and sign class", (
        ("components", "components", str, None, True, "four comma-separated rationals: s,i,e,h"),
        _FORMAT,
    )),
    "expand": (cmd_expand, "generating-function series coefficients", (
        *_PQAB,
        ("--terms", "terms", int, 16, False, "last series index (inclusive)"),
        _FORMAT,
    )),
    "verify": (cmd_verify, "run the identity verification suite", (
        ("--suite", "suite", str, "all", False,
         "identity to verify, or 'all' (choices: %s)" % ", ".join(SUITES)),
        ("--audit", "audit", bool, False, False, "include per-variant outcomes"),
        ("--grid", "grid", str, None, False, "grid file (key=value lines: p, q, ab, nmax, rmax)"),
        _FORMAT,
    )),
}


def _is_value(token: str) -> bool:
    """Whether argparse reads the token as a value, never as an option: it
    does not start with "-", or it is "-" and ASCII digits (a negative
    integer).  Other tokens that start with "-" are left to argparse."""
    return not token.startswith("-") or (token[1:].isdigit() and token[1:].isascii())


def parse_canonical(argv: list[str]) -> dict | None:
    """The arguments argparse would return for argv, as a dict, when argv is
    in canonical form: a command, then exact flag names each followed by a
    valid value (``--flag value``), each flag at most once, every required
    one present.  Anything else (help, any error, abbreviations,
    ``--flag=value``, a repeated flag, ``--``) gives None, for argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, rows = COMMANDS[argv[0]]
    flags = {row[0]: row for row in rows if row[0][0] == "-"}
    positional = next((row for row in rows if row[0][0] != "-"), None)
    found = {}
    tokens = iter(argv[1:])
    for token in tokens:
        row = flags.get(token)
        if row is None:  # the positional, if the command has one
            row, value = positional, token
            if row is None or not _is_value(value):
                return None
        elif row[2] is bool:
            value = True
        else:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                return None
        _, dest, kind = row[:3]
        if dest in found:
            return None
        if kind is int:
            try:
                value = parse_integer(value)
            except ValueError:
                return None
        elif isinstance(kind, tuple) and value not in kind:
            return None
        found[dest] = value
    if any(row[4] and row[1] not in found for row in rows):
        return None
    return {"command": argv[0], "func": func, **{row[1]: row[3] for row in rows}, **found}


def build_parser() -> ArgumentParser:
    """The argparse parser for help and errors, built from COMMANDS."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):  # one error: line and exit 2, like every usage error
            self.exit(USAGE_ERROR, f"error: {message}\n")

    def integer(text: str) -> int:
        try:
            return parse_integer(text)
        except ValueError as exc:  # argparse prints this message, not its generic one
            raise argparse.ArgumentTypeError(str(exc)) from None

    parser = Parser(
        prog="hybridseq",
        description="Hybrid number sequences: exact evaluation and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, rows) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, dest, kind, default, required, text in rows:
            if flag[0] != "-":
                command.add_argument(flag, help=text)
            elif kind is bool:
                command.add_argument(flag, action="store_true", help=text)
            else:
                command.add_argument(
                    flag, dest=dest, default=default, required=required, help=text,
                    type=integer if kind is int else None,
                    choices=None if kind in (int, str) else kind,
                )
        command.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    found = parse_canonical(argv)
    args = build_parser().parse_args(argv) if found is None else SimpleNamespace(**found)
    out = _Blocks()
    try:
        code = args.func(args, out)
        out.flush()  # only after a normal return: an error drops what is held
        return code
    except BrokenPipeError:  # stdout's reader is gone: no usage error, and no line for it
        raise
    except (ValueError, OSError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:  # a closed form or lemma disagreed: a failed check
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR


if __name__ == "__main__":
    from .__main__ import run

    run()
