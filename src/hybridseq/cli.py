"""Command-line front end with machine-readable (JSON lines / CSV) output.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.  Output is deterministic: identical arguments produce byte-identical
streams.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import SUITES, sequences
from .exactarith import format_rational, parse_rational
from .hybrid import BASIS_LABELS, HybridNumber, basis_table, format_basis_product

if TYPE_CHECKING:
    from .identities import VerificationReport

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _jline(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _hybrid_csv(z: HybridNumber) -> list[str]:
    return [format_rational(c) for c in z.parts()]


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
    writer = _csv_writer() if args.format == "csv" else None
    if writer:
        writer(["n", "value"] if args.kind == "scalar" else ["n", "s", "i", "e", "h"])
    resolved = sequences.resolve_params(params, args.seq)
    cache = sequences.SeqCache(resolved)
    for n in range(args.start, args.stop + 1):
        if args.kind == "scalar":
            value = cache.value(n)
            if writer:
                writer([str(n), format_rational(value)])
            else:
                print(_jline({"n": n, "value": format_rational(value)}))
        else:
            z = cache.hybrid(n)
            if writer:
                writer([str(n), *_hybrid_csv(z)])
            else:
                print(_jline({"n": n, "hybrid": z.to_json_dict()}))
    return 0


def cmd_binet(args: argparse.Namespace) -> int:
    from . import binet

    params = _params_from_args(args)
    if args.start > args.stop:
        raise ValueError("--from must not exceed --to")
    resolved = sequences.resolve_params(params, args.seq)
    ctx = binet.make_context(resolved)
    writer = _csv_writer() if args.format == "csv" else None
    if writer:
        writer(["n", "s", "i", "e", "h", "method"])
    window = sequences.SeqCache(resolved)
    divergence = False
    for n in range(args.start, args.stop + 1):
        z = binet.binet_horadam(ctx, n)
        if z != window.hybrid(n):
            print(_jline({"n": n, "error": "binet/recurrence divergence"}), file=sys.stderr)
            divergence = True
            continue
        if writer:
            writer([str(n), *_hybrid_csv(z), "binet"])
        else:
            print(_jline({"n": n, "hybrid": z.to_json_dict(), "method": "binet"}))
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
        writer = _csv_writer()
        writer(["character", "norm_value", "norm_class"])
        writer([payload["character"], str(norm.value), norm.sign_class])
    else:
        print(_jline(payload))
    return 0


def cmd_expand(args: argparse.Namespace) -> int:
    from . import genfunc

    params = _params_from_args(args)
    report = genfunc.check_expansion(params, args.terms)
    writer = _csv_writer() if args.format == "csv" else None
    if writer:
        writer(["r", "s", "i", "e", "h", "matches_seq"])
    for r, coeff in enumerate(report.expansion.coeffs):
        if writer:
            writer([str(r), *_hybrid_csv(coeff), str(report.matches[r]).lower()])
        else:
            print(
                _jline({"r": r, "coeff": coeff.to_json_dict(), "matches_seq": report.matches[r]})
            )
    return 0 if report.ok else VERIFY_ERROR


def _case_json(report: VerificationReport, audit: bool) -> dict:
    case = report.case
    payload = {
        "identity": case.name,
        "params": {"p": case.params.p, "q": case.params.q, "a": case.params.a, "b": case.params.b},
        "indices": list(case.indices),
        "extended": case.extended,
        "verdict": report.verdict,
    }
    if audit:
        payload["lhs"] = report.lhs.to_json_dict()
        payload["variants"] = [
            {
                "label": v.label,
                "authoritative": v.authoritative,
                "pass": v.passed,
                "value": v.value.to_json_dict(),
            }
            for v in report.variants
        ]
    return payload


def cmd_verify(args: argparse.Namespace) -> int:
    from . import identities

    if args.audit and args.format == "csv":
        raise ValueError("--audit needs --format json (csv has no per-variant columns)")
    config = identities.parse_grid_file(args.grid) if args.grid else None
    result = identities.run_suite(config, args.suite)
    if result.cases == result.extended_cases:
        raise identities.GridConfigError(
            f"nothing to verify: suite {args.suite!r} has no gated case on this grid "
            f"({result.cases} cases, all extended-domain probes)"
        )
    if args.format == "csv":
        writer = _csv_writer()
        writer(["identity", "p", "q", "a", "b", "indices", "extended", "verdict",
                "lhs_s", "lhs_i", "lhs_e", "lhs_h"])
        for report in result.reports:
            case = report.case
            writer([
                case.name,
                str(case.params.p), str(case.params.q), str(case.params.a), str(case.params.b),
                ":".join(str(i) for i in case.indices),
                str(case.extended).lower(),
                report.verdict,
                *_hybrid_csv(report.lhs),
            ])
    else:
        for report in result.reports:
            print(_jline(_case_json(report, args.audit)))
        print(
            _jline(
                {
                    "summary": {
                        "suite": result.suite,
                        "cases": result.cases,
                        "verdicts": result.verdict_counts,
                        "extended_cases": result.extended_cases,
                        "extended_failures": result.extended_failures,
                        "all_authoritative_pass": result.all_authoritative_pass,
                    }
                }
            )
        )
    return 0 if result.all_authoritative_pass else VERIFY_ERROR


def _csv_writer():
    def write_row(row: list[str]) -> None:
        print(",".join(row))

    return write_row


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
