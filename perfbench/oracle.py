"""Independent checks of CLI output; imports nothing from hybridseq.

Values come from this module's own two-sided recurrence over Fraction, so
a defect in the program's arithmetic, formatting or case enumeration
shows up here as a failure instead of confirming itself.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from workloads import Request

TABLE = (
    "×       1       i       ε       h\n"
    "1       1       i       ε       h\n"
    "i       i       -1      1-h     ε+i\n"
    "ε       ε       1+h     0       -ε\n"
    "h       h       -(ε+i)  ε       1\n"
).encode()

# Default-grid verdict counts: 17,530 cases, 14,663 pass,
# 2,867 printed-fails-variant-passes, 0 all-fail.
DEFAULT_VERDICTS = {"pass": 14663, "printed-fails-variant-passes": 2867, "all-fail": 0}
SAMPLES = 16


def window(p: int, q: int, a: int, b: int, lo: int, hi: int) -> dict[int, Fraction]:
    """X_lo..X_hi of X_n = p·X_{n-1} + q·X_{n-2}, X_0 = a, X_1 = b."""
    values = {0: Fraction(a), 1: Fraction(b)}
    for n in range(2, hi + 1):
        values[n] = p * values[n - 1] + q * values[n - 2]
    for n in range(-1, lo - 1, -1):
        values[n] = (values[n + 2] - p * values[n + 1]) / q
    return values


def _hybrid(values: dict[int, Fraction], n: int) -> tuple[str, str, str, str]:
    return tuple(str(values[n + k]) for k in range(4))


def _json_hybrid(parts: tuple[str, ...]) -> str:
    s, i, e, h = parts
    return f'{{"s":"{s}","i":"{i}","e":"{e}","h":"{h}"}}'


def expected_line(req: Request, values: dict[int, Fraction], n: int) -> str:
    """The exact line the CLI must print for index n of a windowed request."""
    csv = req.fmt == "csv"
    if req.command == "seq" and not req.hybrid:
        return f"{n},{values[n]}" if csv else f'{{"n":{n},"value":"{values[n]}"}}'
    parts = _hybrid(values, n)
    if req.command == "seq":
        return ",".join((str(n), *parts)) if csv else f'{{"n":{n},"hybrid":{_json_hybrid(parts)}}}'
    if req.command == "binet":
        if csv:
            return ",".join((str(n), *parts, "binet"))
        return f'{{"n":{n},"hybrid":{_json_hybrid(parts)},"method":"binet"}}'
    if csv:
        return ",".join((str(n), *parts, "true"))
    return f'{{"r":{n},"coeff":{_json_hybrid(parts)},"matches_seq":true}}'


HEADERS = {
    ("seq", False): "n,value",
    ("seq", True): "n,s,i,e,h",
    ("binet", True): "n,s,i,e,h,method",
    ("expand", True): "r,s,i,e,h,matches_seq",
}
VERIFY_HEADER = "identity,p,q,a,b,indices,extended,verdict,lhs_s,lhs_i,lhs_e,lhs_h"


def _check_window(req: Request, lines: list[str]) -> list[str]:
    if req.fmt == "csv":
        if not lines or lines[0] != HEADERS[(req.command, req.hybrid)]:
            return [f"bad csv header {lines[:1]!r}"]
        lines = lines[1:]
    count = req.hi - req.lo + 1
    if len(lines) != count:
        return [f"expected {count} lines, got {len(lines)}"]
    p, q, a, b = req.params
    values = window(p, q, a, b, min(req.lo, 0), max(req.hi + 3, 1))
    rng = random.Random(" ".join(req.argv))
    picks = {0, count - 1, *range(0, count, max(1, count // (SAMPLES // 2)))}
    picks.update(rng.randrange(count) for _ in range(SAMPLES // 2))
    problems = []
    for k in sorted(picks):
        want = expected_line(req, values, req.lo + k)
        if lines[k] != want:
            problems.append(f"line {k}: {lines[k][:120]!r} != {want[:120]!r}")
    return problems


def _check_verify(req: Request, lines: list[str]) -> list[str]:
    if req.fmt == "csv":
        if not lines or lines[0] != VERIFY_HEADER:
            return [f"bad csv header {lines[:1]!r}"]
        rows = lines[1:]
        problems = [] if len(rows) == req.cases else [f"{len(rows)} rows != {req.cases} cases"]
        if any(row.split(",")[7] not in ("pass", "printed-fails-variant-passes") for row in rows):
            problems.append("a case has verdict all-fail")
        return problems
    try:
        summary = json.loads(lines[-1])["summary"]
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        return [f"no summary line: {exc!r}"]
    verdicts = summary.get("verdicts", {})
    problems = []
    if summary.get("suite") != req.suite:
        problems.append(f"suite {summary.get('suite')!r} != {req.suite!r}")
    if summary.get("all_authoritative_pass") is not True:
        problems.append("all_authoritative_pass is not true")
    if verdicts.get("all-fail") != 0:
        problems.append(f"all-fail = {verdicts.get('all-fail')}")
    if sum(verdicts.values()) != summary.get("cases"):
        problems.append(f"verdicts {verdicts} do not sum to cases {summary.get('cases')}")
    if summary.get("cases") != req.cases or len(lines) - 1 != req.cases:
        problems.append(f"cases {summary.get('cases')} / {len(lines) - 1} lines != {req.cases}")
    if req.grid is None and verdicts != DEFAULT_VERDICTS:
        problems.append(f"default-grid verdicts {verdicts} != {DEFAULT_VERDICTS}")
    return problems


def check(req: Request, rc: int, out: bytes, err: bytes) -> list[str]:
    """Every way this request's result differs from what it must be."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if err:
        problems.append(f"stderr: {err[:200]!r}")
    if req.command == "table":
        return problems + ([] if out == TABLE else ["table differs"])
    try:
        lines = out.decode().splitlines()
    except UnicodeDecodeError as exc:
        return problems + [f"stdout is not UTF-8: {exc}"]
    if req.command == "verify":
        return problems + _check_verify(req, lines)
    return problems + _check_window(req, lines)


def self_test(req: Request, out: bytes) -> list[str]:
    """Corrupt one sampled output line and make sure check() notices.

    ``out`` is a correct CLI output for ``req``; its first value line is
    always sampled, and its last digit is changed.
    """
    problems = []
    if check(req, 0, out, b""):
        problems.append("oracle rejects a correct output")
    lines = out.decode().splitlines(keepends=True)
    first = 1 if req.fmt == "csv" else 0
    digit = max(i for i, ch in enumerate(lines[first]) if ch.isdigit())
    bumped = str((int(lines[first][digit]) + 1) % 10)
    lines[first] = lines[first][:digit] + bumped + lines[first][digit + 1 :]
    if not check(req, 0, "".join(lines).encode(), b""):
        problems.append("oracle accepts a corrupted output line")
    return problems
