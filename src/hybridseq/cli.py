"""Command-line front end with machine-readable (JSON lines / CSV) output.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.  Output is deterministic: identical arguments produce byte-identical
streams.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from typing import TYPE_CHECKING

from . import SUITES, sequences
from .exactarith import format_rational, parse_rational
from .hybrid import BASIS_LABELS, HybridNumber, basis_table, format_basis_product

if TYPE_CHECKING:
    from fractions import Fraction

    from .identities import VerificationReport

USAGE_ERROR = 2
VERIFY_ERROR = 1

# No command prints a numerator or denominator of more than DIGIT_CAP
# decimal digits (CPython's default int-to-str limit).  Output over the cap
# is a usage error, found by counting bits before the first line.
DIGIT_CAP = 4300
_CAP_POW = 10**DIGIT_CAP
_CAP_BITS = _CAP_POW.bit_length()
# Work budgets, counted before any work; each is about 10 s at the limit.
CASE_BUDGET = 250_000  # verify: cases on the grid for the chosen suite
TERM_CAP = 5_000  # expand: last series index
# Characters per stdout write of a window or of held lines (all ASCII), so
# that a long window is a few system calls even when stdout is unbuffered.
BLOCK = 1 << 16

# One fixed template per output line; every field is an int or a rational
# string of digits, "-" and "/", so no JSON escaping is ever needed.
_HYB = '{"s":"%s","i":"%s","e":"%s","h":"%s"}'
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
_VERIFY_CASE = (
    '{"identity":"%s","params":{"p":%d,"q":%d,"a":%d,"b":%d},"indices":[%s],'
    '"extended":%s,"verdict":"%s"}\n'
)
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
    """Lines for stdout, written in blocks of BLOCK characters (the last
    one shorter), one ``write`` call per block."""

    def __init__(self) -> None:
        self.write = sys.stdout.write
        self.lines: list[str] = []
        self.size = 0

    def __call__(self, line: str) -> None:
        self.lines.append(line)
        self.size += len(line)
        if self.size >= BLOCK:
            text = "".join(self.lines)
            cut = len(text) - len(text) % BLOCK
            for k in range(0, cut, BLOCK):
                self.write(text[k : k + BLOCK])
            self.lines, self.size = [text[cut:]], len(text) - cut

    def flush(self) -> None:
        if self.size:
            self.write("".join(self.lines))
        self.lines, self.size = [], 0


def _jline(obj: dict) -> str:
    import json  # only char, verify --audit and binet's stderr line need it

    return json.dumps(obj, separators=(",", ":"))


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


def _window(cache: sequences.SeqCache, start: int, stop: int, width: int) -> list:
    """X_start … X_{stop+width−1}, checked against the cap before any output.

    Line n shows X_n … X_{n+width−1}, so the error names the first line
    that would hold a value over the cap.
    """
    values = cache.window(start, stop + width - 1)
    for k, value in enumerate(values):
        if _over_cap(value):
            raise _cap_error(f"n={max(start, start + k - width + 1)}")
    return values


def _rendered(values: list, start: int, width: int):
    """(n, text of X_n, …, text of X_{n+width−1}) per line, where values
    starts at X_start.  Consecutive lines share width − 1 values, so each
    value is rendered once."""
    texts = [format_rational(v) for v in values[: width - 1]]
    for n, value in enumerate(values[width - 1 :], start):
        texts.append(format_rational(value))
        yield (n, *texts)
        del texts[0]


def _params_from_args(args: argparse.Namespace) -> sequences.HoradamParams:
    return sequences.HoradamParams(args.p, args.q, args.a, args.b)


def cmd_table(args: argparse.Namespace) -> int:
    cells = [[format_basis_product(z) for z in row] for row in basis_table()]
    rows = [["×", *BASIS_LABELS]]
    rows += [[BASIS_LABELS[k], *cells[k]] for k in range(4)]
    width = max(len(cell) for row in rows for cell in row) + 2
    for row in rows:
        print("".join(cell.ljust(width) for cell in row).rstrip())
    return 0


def cmd_seq(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    if args.start > args.stop:
        raise ValueError("--from must not exceed --to")
    width = 1 if args.kind == "scalar" else 4
    cache = sequences.SeqCache(sequences.resolve_params(params, args.seq))
    values = _window(cache, args.start, args.stop, width)
    header, line = _SEQ_LINES[args.kind, args.format]
    out = _Blocks()
    out(header)
    for row in _rendered(values, args.start, width):
        out(line % row)
    out.flush()
    return 0


def cmd_binet(args: argparse.Namespace) -> int:
    from . import binet

    params = _params_from_args(args)
    if args.start > args.stop:
        raise ValueError("--from must not exceed --to")
    resolved = sequences.resolve_params(params, args.seq)
    window = sequences.SeqCache(resolved)
    values = _window(window, args.start, args.stop, 4)
    closed = binet.binet_window(binet.make_context(resolved), args.start, args.stop)
    header, line = _BINET_LINES[args.format]
    out = _Blocks()
    out(header)
    divergence = False
    for row, value in zip(_rendered(values, args.start, 4), closed):
        n = row[0]
        if value != window.hybrid(n):  # say why: both hybrids, unless over the cap
            why = {"n": n, "error": "binet/recurrence divergence"}
            if not any(map(_over_cap, value)):  # the recurrence window is checked
                why["binet"] = value.to_json_dict()
            why["recurrence"] = dict(zip(HybridNumber._fields, row[1:]))
            out.flush()  # the lines before it go out first
            print(_jline(why), file=sys.stderr)
            divergence = True
            continue
        out(line % row)
    out.flush()
    return VERIFY_ERROR if divergence else 0


def cmd_char(args: argparse.Namespace) -> int:
    components = [parse_rational(tok) for tok in args.components.split(",")]
    if len(components) != 4:
        raise ValueError("expected four comma-separated rationals: s,i,e,h")
    z = HybridNumber(*components)
    norm = z.norm()
    payload = {
        "character": format_rational(z.character()),
        "norm_value": norm.value,
        "norm_class": norm.sign_class,
    }
    if args.format == "csv":
        print("character,norm_value,norm_class")
        print(f"{payload['character']},{norm.value},{norm.sign_class}")
    else:
        print(_jline(payload))
    return 0


def cmd_expand(args: argparse.Namespace) -> int:
    from . import genfunc

    params = _params_from_args(args)
    if args.terms > TERM_CAP:
        raise ValueError(f"--terms {args.terms} is over the term cap of {TERM_CAP}")
    report = genfunc.check_expansion(params, args.terms)
    coeffs = report.expansion.coeffs
    for r, coeff in enumerate(coeffs):
        if any(map(_over_cap, coeff)):
            raise _cap_error(f"r={r}")
    header, line = _EXPAND_LINES[args.format]
    out = _Blocks()
    out(header)
    for r, (coeff, match) in enumerate(zip(coeffs, report.matches)):
        out(line % (r, *map(format_rational, coeff), "true" if match else "false"))
    out.flush()
    return 0 if report.ok else VERIFY_ERROR


def _case_fields(report: VerificationReport, sep: str) -> tuple:
    case = report.case
    return (case.name, *case.params, sep.join(map(str, case.indices)),
            "true" if case.extended else "false", report.verdict)


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
    case = report.case
    lhs, *values = _printed_values(report, audit=True)
    variants = [{"label": v.label, "authoritative": v.authoritative, "pass": v.passed,
                 "value": value.to_json_dict()} for v, value in zip(report.variants, values)]
    return _jline({"identity": case.name, "params": case.params._asdict(),
                   "indices": list(case.indices), "extended": case.extended,
                   "verdict": report.verdict, "lhs": lhs.to_json_dict(),
                   "variants": variants}) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
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
    if not identities.case_count(config, args.suite, gated=True):
        raise identities.GridConfigError(
            f"nothing to verify: suite {args.suite!r} has no gated case on this grid "
            f"({cases} cases, all extended-domain probes)"
        )
    held: list[str] = []
    if args.format == "json" and not args.audit:  # verdicts only: each line goes out at once
        emit, render = sys.stdout.write, _plain_line
    else:  # lines with values are held to the end, so an over-cap value stops the run first
        emit, render = held.append, _csv_line if args.format == "csv" else _audit_line
    result = identities.run_suite(config, args.suite, sink=lambda report: emit(render(report)))
    out = _Blocks()
    if args.format == "csv":
        out(_VERIFY_CSV[0])
    for text in held:
        out(text)
    counts, extended, extended_failures, gate = result.tally()
    if args.format == "json":
        out(_VERIFY_SUMMARY % (result.suite, result.cases, *counts.values(), extended,
                               extended_failures, "true" if gate else "false"))
    out.flush()
    return 0 if gate else VERIFY_ERROR


def _add_param_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, required=True, help="recurrence coefficient p")
    parser.add_argument("--q", type=int, required=True, help="recurrence coefficient q (nonzero)")
    parser.add_argument("--a", type=int, default=0, help="seed X_0 (default 0)")
    parser.add_argument("--b", type=int, default=1, help="seed X_1 (default 1)")


def _add_format_opt(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridseq",
        description="Hybrid number sequences: exact evaluation and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table", help="print the 4×4 unit multiplication table").set_defaults(
        func=cmd_table
    )

    seq = sub.add_parser("seq", help="emit sequence values as JSON lines")
    _add_param_opts(seq)
    seq.add_argument("--from", dest="start", type=int, default=0, help="first index")
    seq.add_argument("--to", dest="stop", type=int, default=10, help="last index (inclusive)")
    seq.add_argument("--kind", choices=("scalar", "hybrid"), default="hybrid")
    seq.add_argument("--seq", choices=sequences.SEQ_KINDS, default="horadam")
    _add_format_opt(seq)
    seq.set_defaults(func=cmd_seq)

    bin_cmd = sub.add_parser("binet", help="emit closed-form values, checked against the recurrence")
    _add_param_opts(bin_cmd)
    bin_cmd.add_argument("--from", dest="start", type=int, default=0)
    bin_cmd.add_argument("--to", dest="stop", type=int, default=10)
    bin_cmd.add_argument("--seq", choices=sequences.SEQ_KINDS, default="horadam")
    _add_format_opt(bin_cmd)
    bin_cmd.set_defaults(func=cmd_binet)

    char = sub.add_parser("char", help="character, norm magnitude and sign class")
    char.add_argument("components", help="four comma-separated rationals: s,i,e,h")
    _add_format_opt(char)
    char.set_defaults(func=cmd_char)

    expand = sub.add_parser("expand", help="generating-function series coefficients")
    _add_param_opts(expand)
    expand.add_argument("--terms", type=int, default=16, help="last series index (inclusive)")
    _add_format_opt(expand)
    expand.set_defaults(func=cmd_expand)

    verify = sub.add_parser("verify", help="run the identity verification suite")
    verify.add_argument(
        "--suite",
        default="all",
        help="identity to verify, or 'all' (choices: %s)" % ", ".join(SUITES),
    )
    verify.add_argument("--audit", action="store_true", help="include per-variant outcomes")
    verify.add_argument("--grid", help="grid file (key=value lines: p, q, ab, nmax, rmax)")
    _add_format_opt(verify)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:  # a closed form or lemma disagreed: a failed check
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
