"""Grid verification of the hybrid sequence identities, with an audit mode.

Every identity is evaluated through two independent code paths: the left
side multiplies recurrence-generated hybrid values directly, while the
right side is assembled only from scalar sequence values and the constant
hybrids of the :class:`~hybridseq.binet.BinetContext`.  The two sides
share no intermediate computation beyond hybrid addition and scaling and
the pair helpers below, so a bug in one path cannot silently validate
the other.

Both sides are evaluated on integers: a value is a pair (N, den) of a
hybrid N with ``int`` components and a positive ``int`` den, standing for
N/den.  The left side multiplies and subtracts numerators; the right side
folds its scalar factors into one ratio and applies it to the numerators
of the constant hybrids.  The two pairs meet only in one cross-multiplied
comparison, and the reported values are reduced from the pairs afterwards.

Three identities are commonly stated with a sign or coefficient slip; for
those the verifier evaluates the statement as usually typeset (variant
``printed``) next to the form the underlying derivation actually yields
(variant ``proof-form`` or ``sign-corrected``).  The corrected variant is
authoritative: suite success means every authoritative variant matched
exactly, while ``printed`` outcomes are reported for auditing.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from typing import NamedTuple

from . import SUITES
from .binet import BinetContext, make_context
from .exactarith import _rational
from .hybrid import HybridNumber
from .sequences import HoradamParams, SeqCache, fib_params, lucas_params

VERDICT_PASS = "pass"
VERDICT_AUDIT = "printed-fails-variant-passes"
VERDICT_FAIL = "all-fail"


class GridConfigError(ValueError):
    """Invalid verification grid configuration."""


class IdentityCase(NamedTuple):
    """One grid point: identity name, parameters, and index tuple."""

    name: str
    params: HoradamParams
    indices: tuple[int, ...]
    extended: bool = False


class VariantResult(NamedTuple):
    label: str
    value: HybridNumber
    passed: bool
    authoritative: bool


class VerificationReport(NamedTuple):
    case: IdentityCase
    lhs: HybridNumber
    variants: tuple[VariantResult, ...]
    verdict: str

    @property
    def rhs_printed(self) -> HybridNumber:
        return next(v.value for v in self.variants if v.label == "printed")

    @property
    def authoritative_passed(self) -> bool:
        for variant in self.variants:
            if variant.authoritative:
                return variant.passed
        return False


# --- values as (integer numerators, positive denominator) pairs ---

_hybrid = partial(tuple.__new__, HybridNumber)  # from four components, unchecked


def _scaled(values) -> tuple[HybridNumber, int]:
    """Four int/Fraction components as (N, den), N/den equal to them."""
    den = lcm(*(v.denominator for v in values))
    return _hybrid(v.numerator * (den // v.denominator) for v in values), den


def _value(pair) -> HybridNumber:
    """The reduced hybrid of a pair: ``int`` components where integral."""
    num, den = pair
    return num if den == 1 else _hybrid(_rational(c, den) for c in num)


def _same(lhs, rhs) -> bool:
    """Whether two pairs stand for the same hybrid, by cross-multiplying."""
    (x, dx), (y, dy) = lhs, rhs
    if dx == dy:
        return x == y
    return all(a * dy == b * dx for a, b in zip(x, y))


def _rhs(*terms) -> tuple[HybridNumber, int]:
    """Σ C·f₁·f₂⋯ over terms (C, f₁, f₂, …), C a constant's pair and the f
    int/Fraction scalars, as one pair.  Each term's scalars fold into one
    unreduced ratio, applied once to the integer numerators of C."""
    scaled, den = [], 1
    for (num, k_den), *factors in terms:
        k = 1
        for factor in factors:
            k *= factor.numerator
            k_den *= factor.denominator
        scaled.append((num, k, k_den))
        den *= k_den
    s = i = e = h = 0
    for (cs, ci, ce, ch), k, k_den in scaled:
        if den != 1:
            k *= den // k_den
        s, i, e, h = s + k * cs, i + k * ci, e + k * ce, h + k * ch
    return _hybrid((s, i, e, h)), den


def _lhs(first, second) -> tuple[HybridNumber, int]:
    """first − second for two _prod pairs."""
    (x, dx), (y, dy) = first, second
    if dx != dy:
        x, y, dx = x.scale(dy), y.scale(dx), dx * dy
    return _hybrid((x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])), dx


def _report(name, params, indices, lhs, printed, corrected=None, label="", extended=False):
    """The report of one case; corrected, when given, is the authoritative
    variant and printed is only audited."""
    ok = _same(lhs, printed)
    if corrected is None:
        variants = (VariantResult("printed", _value(printed), ok, True),)
        verdict = VERDICT_PASS if ok else VERDICT_FAIL
    else:
        fixed = _same(lhs, corrected)
        variants = (
            VariantResult("printed", _value(printed), ok, False),
            VariantResult(label, _value(corrected), fixed, True),
        )
        verdict = VERDICT_PASS if ok else VERDICT_AUDIT if fixed else VERDICT_FAIL
    return VerificationReport(IdentityCase(name, params, indices, extended), _value(lhs),
                              variants, verdict)


# --- memoized evaluation helpers (pure functions of hashable arguments) ---


@lru_cache(maxsize=None)
def _ctx(params: HoradamParams) -> BinetContext:
    return make_context(params)


@lru_cache(maxsize=None)
def _seq_cache(params: HoradamParams) -> SeqCache:
    return SeqCache(params)


def _scalar(params: HoradamParams, n: int) -> int | Fraction:
    return _seq_cache(params).value(n)


@lru_cache(maxsize=None)
def _hyb(params: HoradamParams, n: int) -> tuple[HybridNumber, int]:
    """HJ_n as a pair: the window X_n … X_{n+3} over its common denominator."""
    return _scaled(_seq_cache(params).window(n, n + 3))


@lru_cache(maxsize=None)
def _prod(pa: HoradamParams, na: int, pb: HoradamParams, nb: int) -> tuple[HybridNumber, int]:
    (x, dx), (y, dy) = _hyb(pa, na), _hyb(pb, nb)
    return x * y, dx * dy


@lru_cache(maxsize=None)
def _rhs_consts(p: int, q: int) -> tuple[HybridNumber, HybridNumber, HybridNumber, HybridNumber]:
    """(HL₀ − cross_shift, HF₀ − omega, HL₀ + r-shift, HF₀ + s-shift)."""
    ctx = _ctx(fib_params(p, q))
    return (
        ctx.lucas0 - HybridNumber.from_scalar(ctx.cross_shift),
        ctx.fib0 - ctx.omega,
        ctx.lucas0 + HybridNumber.from_scalar(ctx.square_lucas_shift),
        ctx.fib0 + HybridNumber.from_scalar(ctx.square_fib_shift),
    )


def _neg_q_pow(q: int, n: int) -> int | Fraction:
    return (-q) ** n if n >= 0 else Fraction(1, (-q) ** -n)


# What the cases of one (p, q) share: the Fibonacci and Lucas seeds, and
# the four _rhs_consts hybrids as pairs.
_PQ = namedtuple("_PQ", "fibs lucs lucas_shifted fib_shifted lucas_sq fib_sq")


def _pq(p: int, q: int) -> _PQ:
    return _PQ(fib_params(p, q), lucas_params(p, q), *map(_scaled, _rhs_consts(p, q)))


# --- the identities ---
#
# Each takes the (p, q) values as ``pq``; run_suite builds them once per
# pair, a direct call builds them itself.


def catalan(ctx: BinetContext, m: int, r: int, *, extended: bool = False,
            pq: _PQ | None = None) -> VerificationReport:
    """HJ_m² − HJ_{m+r}·HJ_{m−r} against its closed form; domain m ≥ r ≥ 0."""
    if not extended and not m >= r >= 0:
        raise ValueError("catalan requires m >= r >= 0")
    params = ctx.params
    q = params.q
    pq = pq or _pq(params.p, q)
    lhs = _lhs(_prod(params, m, params, m), _prod(params, m + r, params, m - r))
    fibs = pq.fibs
    outer = (-ctx.weight_product, _neg_q_pow(q, m), _scalar(fibs, -r))
    rhs = _rhs((pq.lucas_shifted, _scalar(fibs, r), *outer),
               (pq.fib_shifted, q, _scalar(pq.lucs, r), *outer))
    return _report("catalan", params, (m, r), lhs, rhs, extended=extended)


def cassini(ctx: BinetContext, m: int, *, extended: bool = False,
            pq: _PQ | None = None) -> VerificationReport:
    """HJ_m² − HJ_{m+1}·HJ_{m−1} against its closed form; domain m ≥ 1.

    The right side must coincide with the catalan right side at r = 1
    (they differ only by the F_{−1} = 1/q reduction); that consistency is
    asserted on every call.
    """
    if not extended and m < 1:
        raise ValueError("cassini requires m >= 1")
    params = ctx.params
    p, q = params.p, params.q
    pq = pq or _pq(p, q)
    lhs = _lhs(_prod(params, m, params, m), _prod(params, m + 1, params, m - 1))
    outer = (ctx.weight_product, _neg_q_pow(q, m - 1))
    rhs = _rhs((pq.lucas_shifted, *outer), (pq.fib_shifted, p * q, *outer))
    report = _report("cassini", params, (m,), lhs, rhs, extended=extended)
    if catalan(ctx, m, 1, extended=True, pq=pq).rhs_printed != report.rhs_printed:
        raise ArithmeticError(f"cassini RHS disagrees with catalan RHS at r=1 for m={m}")
    return report


def docagne(ctx: BinetContext, r: int, m: int, *, extended: bool = False,
            pq: _PQ | None = None) -> VerificationReport:
    """HJ_r·HJ_{m+1} − HJ_{r+1}·HJ_m against its closed form; any integers."""
    params = ctx.params
    q = params.q
    pq = pq or _pq(params.p, q)
    lhs = _lhs(_prod(params, r, params, m + 1), _prod(params, r + 1, params, m))
    outer = (_neg_q_pow(q, m), ctx.weight_product)
    rhs = _rhs((pq.lucas_shifted, _scalar(pq.fibs, r - m), *outer),
               (pq.fib_shifted, q, _scalar(pq.lucs, r - m), *outer))
    return _report("docagne", params, (r, m), lhs, rhs, extended=extended)


def adjacent_commutator(ctx: BinetContext, r: int, *, pq: _PQ | None = None) -> VerificationReport:
    """HJ_{r+1}·HJ_r − HJ_r·HJ_{r+1} = 2(−q)^{r+1}·A·B·(HF₀ − omega)."""
    if r < 0:
        raise ValueError("adjacent commutator requires r >= 0")
    params = ctx.params
    q = params.q
    pq = pq or _pq(params.p, q)
    lhs = _lhs(_prod(params, r + 1, params, r), _prod(params, r, params, r + 1))
    rhs = _rhs((pq.fib_shifted, 2, _neg_q_pow(q, r + 1), ctx.weight_product))
    return _report("adjacent-commutator", params, (r,), lhs, rhs)


def lucas_fib_exchange(params: HoradamParams, n: int, r: int, s: int, *,
                       pq: _PQ | None = None) -> VerificationReport:
    """HL_{n+r}·HF_{n+s} − HL_{n+s}·HF_{n+r} = 2(−q)^{n+r}·F_{s−r}·(HL₀ − cross_shift)."""
    q = params.q
    pq = pq or _pq(params.p, q)
    fibs, lucs = pq.fibs, pq.lucs
    lhs = _lhs(_prod(lucs, n + r, fibs, n + s), _prod(lucs, n + s, fibs, n + r))
    rhs = _rhs((pq.lucas_shifted, 2, _neg_q_pow(q, n + r), _scalar(fibs, s - r)))
    return _report("lucas-fib-exchange", fibs, (n, r, s), lhs, rhs)


def square_difference(params: HoradamParams, n: int, *,
                      pq: _PQ | None = None) -> VerificationReport:
    """HL_n² − HF_n², with the as-typeset and derivation-implied right sides.

    The typeset statement carries the F_{2n} term without the (p²+4q−1)
    factor that the derivation produces; both variants are evaluated.
    """
    if n < 0:
        raise ValueError("square difference requires n >= 0")
    q = params.q
    disc = params.discriminant
    pq = pq or _pq(params.p, q)
    fibs, lucs = pq.fibs, pq.lucs
    lhs = _lhs(_prod(lucs, n, lucs, n), _prod(fibs, n, fibs, n))
    f2n = _scalar(fibs, 2 * n)
    lucas_term = (pq.lucas_sq, Fraction(disc - 1, disc), _scalar(lucs, 2 * n))
    cross_term = (pq.lucas_shifted, 2, Fraction(disc + 1, disc), _neg_q_pow(q, n))
    printed = _rhs(lucas_term, (pq.fib_sq, f2n), cross_term)
    proof_form = _rhs(lucas_term, (pq.fib_sq, disc - 1, f2n), cross_term)
    return _report("square-difference", fibs, (n,), lhs, printed, proof_form, "proof-form")


def horadam_commutator(ctx: BinetContext, n: int, m: int, *,
                       pq: _PQ | None = None) -> VerificationReport:
    """HF_n·HJ_m − HJ_m·HF_n, printed and sign-flipped right sides.

    The typeset statement reads 2(−q)^{n+1}·J_{m−n}·(HF₀ − omega); the
    derivation yields its negative.  Domain m ≥ n ≥ 0.
    """
    if not m >= n >= 0:
        raise ValueError("horadam commutator requires m >= n >= 0")
    params = ctx.params
    q = params.q
    pq = pq or _pq(params.p, q)
    fibs = pq.fibs
    lhs = _lhs(_prod(fibs, n, params, m), _prod(params, m, fibs, n))
    printed = _rhs((pq.fib_shifted, 2, _neg_q_pow(q, n + 1), _scalar(params, m - n)))
    corrected = (-printed[0], printed[1])
    return _report("horadam-commutator", params, (n, m), lhs, printed, corrected, "proof-form")


def diag_commutator(ctx: BinetContext, n: int, *, pq: _PQ | None = None) -> VerificationReport:
    """HF_n·HJ_n − HJ_n·HF_n, printed and sign-corrected right sides."""
    if n < 0:
        raise ValueError("diag commutator requires n >= 0")
    params = ctx.params
    q = params.q
    pq = pq or _pq(params.p, q)
    fibs = pq.fibs
    lhs = _lhs(_prod(fibs, n, params, n), _prod(params, n, fibs, n))
    printed = _rhs((pq.fib_shifted, 2, params.a, _neg_q_pow(q, n + 1)))
    corrected = (-printed[0], printed[1])
    return _report("diag-commutator", params, (n,), lhs, printed, corrected, "sign-corrected")


# --- grid configuration and the suite runner ---

EXTENDED_RANGE = range(-5, 0)


class _GridFields(NamedTuple):
    ps: tuple[int, ...] = (1, 2, 3)
    qs: tuple[int, ...] = (-2, -1, 1, 2)
    ab: tuple[tuple[int | str, int | str], ...] = ((0, 1), (2, "p"), (1, 1), (2, 3))
    nmax: int = 10
    rmax: int = 6


class GridConfig(_GridFields):
    """Cartesian verification grid; (p,q) pairs with p²+4q = 0 are skipped."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GridConfig:
        self = super().__new__(cls, *args, **kwargs)
        if any(q == 0 for q in self.qs):
            raise GridConfigError("grid q values must be nonzero")
        if self.nmax < 0 or self.rmax < 0:
            raise GridConfigError("nmax and rmax must be nonnegative")
        for pair in self.ab:
            if len(pair) != 2 or not all(isinstance(v, int) or v == "p" for v in pair):
                raise GridConfigError(f"bad seed pair {pair!r}: want ints or 'p'")
        return self

    @classmethod
    def _make(cls, iterable) -> GridConfig:  # so that _replace validates too
        return cls(*iterable)


DEFAULT_GRID = GridConfig()


def _parse_grid_token(token: str) -> int | str:
    token = token.strip()
    if token == "p":
        return "p"
    try:
        return int(token)
    except ValueError as exc:
        raise GridConfigError(f"bad grid value {token!r}") from exc


def parse_grid_text(text: str) -> GridConfig:
    """Parse the flat key=value grid format.

    Example::

        p=1,2,3
        q=-2,-1,1,2
        ab=0:1,2:p
        nmax=10
        rmax=6
    """
    fields: dict = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise GridConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise GridConfigError(f"line {lineno}: grid key {key!r} is given twice")
        seen.add(key)
        items = [item for item in value.split(",") if item.strip()]
        if not items and key in ("p", "q", "ab"):
            raise GridConfigError(f"line {lineno}: grid key {key!r} has no values")
        if key in ("p", "q"):
            values = tuple(_parse_grid_token(item) for item in items)
            if any(not isinstance(v, int) for v in values):
                raise GridConfigError(f"line {lineno}: {key} values must be integers")
            fields["ps" if key == "p" else "qs"] = values
        elif key == "ab":
            pairs = []
            for item in items:
                a_tok, sep, b_tok = item.partition(":")
                if not sep:
                    raise GridConfigError(f"line {lineno}: seed pair {item!r} needs a:b")
                pairs.append((_parse_grid_token(a_tok), _parse_grid_token(b_tok)))
            fields["ab"] = tuple(pairs)
        elif key in ("nmax", "rmax"):
            try:
                fields[key] = int(value.strip())
            except ValueError as exc:
                raise GridConfigError(f"line {lineno}: {key} must be an integer") from exc
        else:
            raise GridConfigError(f"line {lineno}: unknown grid key {key!r}")
    return GridConfig(**fields)


def parse_grid_file(path: str) -> GridConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_grid_text(fh.read())


def grid_param_sets(config: GridConfig) -> list[HoradamParams]:
    """Resolved, deduplicated parameter sets in deterministic order."""
    out: list[HoradamParams] = []
    seen = set()
    for p in sorted(config.ps):
        for q in sorted(config.qs):
            if p * p + 4 * q == 0:
                continue
            for a_raw, b_raw in config.ab:
                a = p if a_raw == "p" else a_raw
                b = p if b_raw == "p" else b_raw
                params = HoradamParams(p, q, a, b)
                if params not in seen:
                    seen.add(params)
                    out.append(params)
    return out


def _distinct_pq(param_sets: list[HoradamParams]) -> list[tuple[int, int]]:
    seen: list[tuple[int, int]] = []
    for params in param_sets:
        if (params.p, params.q) not in seen:
            seen.append((params.p, params.q))
    return seen


def _suite_names(suite: str) -> tuple[str, ...]:
    if suite != "all" and suite not in SUITES:
        raise GridConfigError(f"unknown suite {suite!r}; expected 'all' or one of {SUITES}")
    return SUITES if suite == "all" else (suite,)


def case_count(config: GridConfig, suite: str = "all") -> int:
    """The number of cases :func:`run_suite` evaluates, from the grid alone."""
    param_sets = grid_param_sets(config)
    n, r, ext = config.nmax, config.rmax, len(EXTENDED_RANGE)
    per_params = {
        "catalan": sum(min(m, r) + 1 for m in range(n + 1)) + ext * (min(r, 3) + 1),
        "cassini": n + ext,
        "docagne": (r + 1) * (n + 1 + ext),
        "adjacent-commutator": r + 1,
        "horadam-commutator": (n + 1) * (n + 2) // 2,
        "diag-commutator": n + 1,
    }
    per_pq = {"lucas-fib-exchange": (n + 1) * (r + 1) ** 2, "square-difference": n + 1}
    n_params, n_pq = len(param_sets), len(_distinct_pq(param_sets))
    return sum(per_params.get(name, 0) * n_params + per_pq.get(name, 0) * n_pq
               for name in _suite_names(suite))


class SuiteResult:
    """The reports of one :func:`run_suite` call, in run order."""

    def __init__(self, suite: str, reports: list[VerificationReport] | None = None) -> None:
        self.suite = suite
        self.reports = [] if reports is None else reports

    @property
    def cases(self) -> int:
        return len(self.reports)

    def tally(self) -> tuple[dict[str, int], int, int, bool]:
        """(verdict counts, extended cases, extended failures, gate), in one pass.

        The gate holds when every non-extended case matched its
        authoritative variant.
        """
        counts = {VERDICT_PASS: 0, VERDICT_AUDIT: 0, VERDICT_FAIL: 0}
        extended = extended_failures = 0
        gate = True
        for report in self.reports:
            counts[report.verdict] += 1
            if report.case.extended:
                extended += 1
                extended_failures += not report.authoritative_passed
            elif gate and not report.authoritative_passed:
                gate = False
        return counts, extended, extended_failures, gate

    @property
    def verdict_counts(self) -> dict[str, int]:
        return self.tally()[0]

    @property
    def printed_failures(self) -> list[VerificationReport]:
        return [r for r in self.reports if r.verdict != VERDICT_PASS]

    @property
    def extended_cases(self) -> int:
        return self.tally()[1]

    @property
    def extended_failures(self) -> int:
        return self.tally()[2]

    @property
    def all_authoritative_pass(self) -> bool:
        """Gate: every non-extended case matched its authoritative variant."""
        return self.tally()[3]


def run_suite(config: GridConfig | None = None, suite: str = "all") -> SuiteResult:
    """Evaluate one identity (or all) over the grid, deterministically ordered.

    Extended-domain probes (negative leading index, flagged on the case)
    are included for catalan/cassini/docagne but excluded from the
    :attr:`SuiteResult.all_authoritative_pass` gate.  The loop builds only
    acyclic records, so the cyclic garbage collector is paused while it
    runs and the caller's setting is restored afterwards.
    """
    if config is None:
        config = DEFAULT_GRID
    names = _suite_names(suite)
    param_sets = grid_param_sets(config)
    shared = {pair: _pq(*pair) for pair in _distinct_pq(param_sets)}
    nmax, rmax = config.nmax, config.rmax
    result = SuiteResult(suite=suite)
    add = result.reports.append
    collecting = gc.isenabled()
    gc.disable()
    try:
        for name in names:
            if name == "lucas-fib-exchange":
                for pq in shared.values():
                    for n in range(nmax + 1):
                        for r in range(rmax + 1):
                            for s in range(rmax + 1):
                                add(lucas_fib_exchange(pq.fibs, n, r, s, pq=pq))
                continue
            if name == "square-difference":
                for pq in shared.values():
                    for n in range(nmax + 1):
                        add(square_difference(pq.fibs, n, pq=pq))
                continue
            for params in param_sets:
                ctx, pq = _ctx(params), shared[params.p, params.q]
                if name == "catalan":
                    for m in range(nmax + 1):
                        for r in range(min(m, rmax) + 1):
                            add(catalan(ctx, m, r, pq=pq))
                    for m in EXTENDED_RANGE:
                        for r in range(min(rmax, 3) + 1):
                            add(catalan(ctx, m, r, extended=True, pq=pq))
                elif name == "cassini":
                    for m in range(1, nmax + 1):
                        add(cassini(ctx, m, pq=pq))
                    for m in EXTENDED_RANGE:
                        add(cassini(ctx, m, extended=True, pq=pq))
                elif name == "docagne":
                    for r in range(rmax + 1):
                        for m in range(nmax + 1):
                            add(docagne(ctx, r, m, pq=pq))
                        for m in EXTENDED_RANGE:
                            add(docagne(ctx, r, m, extended=True, pq=pq))
                elif name == "adjacent-commutator":
                    for r in range(rmax + 1):
                        add(adjacent_commutator(ctx, r, pq=pq))
                elif name == "horadam-commutator":
                    for n in range(nmax + 1):
                        for m in range(n, nmax + 1):
                            add(horadam_commutator(ctx, n, m, pq=pq))
                elif name == "diag-commutator":
                    for n in range(nmax + 1):
                        add(diag_commutator(ctx, n, pq=pq))
    finally:
        if collecting:
            gc.enable()
    return result
