"""Grid verification of the hybrid sequence identities, with an audit mode.

Every identity is evaluated through two independent code paths: the left
side multiplies recurrence-generated hybrid values directly, while the
right side is assembled only from scalar sequence values and the constant
hybrids of the :class:`~hybridseq.binet.BinetContext`.  The two sides
share no intermediate computation beyond hybrid addition and scaling, so
a bug in one path cannot silently validate the other.

Three identities are commonly stated with a sign or coefficient slip; for
those the verifier evaluates the statement as usually typeset (variant
``printed``) next to the form the underlying derivation actually yields
(variant ``proof-form`` or ``sign-corrected``).  The corrected variant is
authoritative: suite success means every authoritative variant matched
exactly, while ``printed`` outcomes are reported for auditing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import SUITES
from .binet import BinetContext, make_context
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
        return next(v.passed for v in self.variants if v.authoritative)


def _verdict(variants: tuple[VariantResult, ...]) -> str:
    printed = next(v for v in variants if v.label == "printed")
    if printed.passed:
        return VERDICT_PASS
    if any(v.passed for v in variants):
        return VERDICT_AUDIT
    return VERDICT_FAIL


def _report(
    name: str,
    params: HoradamParams,
    indices: tuple[int, ...],
    lhs: HybridNumber,
    labeled_rhs: tuple[tuple[str, HybridNumber, bool], ...],
    extended: bool = False,
) -> VerificationReport:
    variants = tuple(
        VariantResult(label, value, value == lhs, authoritative)
        for label, value, authoritative in labeled_rhs
    )
    return VerificationReport(
        case=IdentityCase(name, params, indices, extended),
        lhs=lhs,
        variants=variants,
        verdict=_verdict(variants),
    )


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
def _hyb(params: HoradamParams, n: int) -> HybridNumber:
    return _seq_cache(params).hybrid(n)


@lru_cache(maxsize=None)
def _prod(pa: HoradamParams, na: int, pb: HoradamParams, nb: int) -> HybridNumber:
    return _hyb(pa, na) * _hyb(pb, nb)


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
    return (-q) ** n if n >= 0 else Fraction(-q) ** n


# --- the identities ---


def catalan(ctx: BinetContext, m: int, r: int, *, extended: bool = False) -> VerificationReport:
    """HJ_m² − HJ_{m+r}·HJ_{m−r} against its closed form; domain m ≥ r ≥ 0."""
    if not extended and not m >= r >= 0:
        raise ValueError("catalan requires m >= r >= 0")
    params = ctx.params
    p, q = params.p, params.q
    lhs = _prod(params, m, params, m) - _prod(params, m + r, params, m - r)
    lucas_shifted, fib_shifted, _, _ = _rhs_consts(p, q)
    brace = lucas_shifted.scale(_scalar(fib_params(p, q), r)) + fib_shifted.scale(
        q * _scalar(lucas_params(p, q), r)
    )
    rhs = brace.scale(-ctx.weight_product * _neg_q_pow(q, m) * _scalar(fib_params(p, q), -r))
    return _report("catalan", params, (m, r), lhs, (("printed", rhs, True),), extended)


def cassini(ctx: BinetContext, m: int, *, extended: bool = False) -> VerificationReport:
    """HJ_m² − HJ_{m+1}·HJ_{m−1} against its closed form; domain m ≥ 1.

    The right side must coincide with the catalan right side at r = 1
    (they differ only by the F_{−1} = 1/q reduction); that consistency is
    asserted on every call.
    """
    if not extended and m < 1:
        raise ValueError("cassini requires m >= 1")
    params = ctx.params
    p, q = params.p, params.q
    lhs = _prod(params, m, params, m) - _prod(params, m + 1, params, m - 1)
    lucas_shifted, fib_shifted, _, _ = _rhs_consts(p, q)
    rhs = (lucas_shifted + fib_shifted.scale(p * q)).scale(
        ctx.weight_product * _neg_q_pow(q, m - 1)
    )
    reduced = catalan(ctx, m, 1, extended=True).rhs_printed
    if reduced != rhs:
        raise ArithmeticError(f"cassini RHS disagrees with catalan RHS at r=1 for m={m}")
    return _report("cassini", params, (m,), lhs, (("printed", rhs, True),), extended)


def docagne(ctx: BinetContext, r: int, m: int, *, extended: bool = False) -> VerificationReport:
    """HJ_r·HJ_{m+1} − HJ_{r+1}·HJ_m against its closed form; any integers."""
    params = ctx.params
    p, q = params.p, params.q
    lhs = _prod(params, r, params, m + 1) - _prod(params, r + 1, params, m)
    lucas_shifted, fib_shifted, _, _ = _rhs_consts(p, q)
    brace = lucas_shifted.scale(_scalar(fib_params(p, q), r - m)) + fib_shifted.scale(
        q * _scalar(lucas_params(p, q), r - m)
    )
    rhs = brace.scale(_neg_q_pow(q, m) * ctx.weight_product)
    return _report("docagne", params, (r, m), lhs, (("printed", rhs, True),), extended)


def adjacent_commutator(ctx: BinetContext, r: int) -> VerificationReport:
    """HJ_{r+1}·HJ_r − HJ_r·HJ_{r+1} = 2(−q)^{r+1}·A·B·(HF₀ − omega)."""
    if r < 0:
        raise ValueError("adjacent commutator requires r >= 0")
    params = ctx.params
    q = params.q
    lhs = _prod(params, r + 1, params, r) - _prod(params, r, params, r + 1)
    _, fib_shifted, _, _ = _rhs_consts(params.p, q)
    rhs = fib_shifted.scale(2 * _neg_q_pow(q, r + 1) * ctx.weight_product)
    return _report("adjacent-commutator", params, (r,), lhs, (("printed", rhs, True),))


def lucas_fib_exchange(params: HoradamParams, n: int, r: int, s: int) -> VerificationReport:
    """HL_{n+r}·HF_{n+s} − HL_{n+s}·HF_{n+r} = 2(−q)^{n+r}·F_{s−r}·(HL₀ − cross_shift)."""
    p, q = params.p, params.q
    fibs, lucs = fib_params(p, q), lucas_params(p, q)
    lhs = _prod(lucs, n + r, fibs, n + s) - _prod(lucs, n + s, fibs, n + r)
    lucas_shifted, _, _, _ = _rhs_consts(p, q)
    rhs = lucas_shifted.scale(2 * _neg_q_pow(q, n + r) * _scalar(fibs, s - r))
    return _report("lucas-fib-exchange", fibs, (n, r, s), lhs, (("printed", rhs, True),))


def square_difference(params: HoradamParams, n: int) -> VerificationReport:
    """HL_n² − HF_n², with the as-typeset and derivation-implied right sides.

    The typeset statement carries the F_{2n} term without the (p²+4q−1)
    factor that the derivation produces; both variants are evaluated.
    """
    if n < 0:
        raise ValueError("square difference requires n >= 0")
    p, q = params.p, params.q
    disc = params.discriminant
    fibs, lucs = fib_params(p, q), lucas_params(p, q)
    lhs = _prod(lucs, n, lucs, n) - _prod(fibs, n, fibs, n)
    lucas_shifted, _, lucas_sq, fib_sq = _rhs_consts(p, q)
    l2n = _scalar(lucs, 2 * n)
    f2n = _scalar(fibs, 2 * n)
    lucas_term = lucas_sq.scale(Fraction(disc - 1, disc) * l2n)
    cross_term = lucas_shifted.scale(2 * Fraction(disc + 1, disc) * _neg_q_pow(q, n))
    printed = lucas_term + fib_sq.scale(f2n) + cross_term
    proof_form = lucas_term + fib_sq.scale((disc - 1) * f2n) + cross_term
    return _report(
        "square-difference",
        fibs,
        (n,),
        lhs,
        (("printed", printed, False), ("proof-form", proof_form, True)),
    )


def horadam_commutator(ctx: BinetContext, n: int, m: int) -> VerificationReport:
    """HF_n·HJ_m − HJ_m·HF_n, printed and sign-flipped right sides.

    The typeset statement reads 2(−q)^{n+1}·J_{m−n}·(HF₀ − omega); the
    derivation yields its negative.  Domain m ≥ n ≥ 0.
    """
    if not m >= n >= 0:
        raise ValueError("horadam commutator requires m >= n >= 0")
    params = ctx.params
    p, q = params.p, params.q
    fibs = fib_params(p, q)
    lhs = _prod(fibs, n, params, m) - _prod(params, m, fibs, n)
    _, fib_shifted, _, _ = _rhs_consts(p, q)
    scale = 2 * _neg_q_pow(q, n + 1) * _scalar(params, m - n)
    printed = fib_shifted.scale(scale)
    proof_form = fib_shifted.scale(-scale)
    return _report(
        "horadam-commutator",
        params,
        (n, m),
        lhs,
        (("printed", printed, False), ("proof-form", proof_form, True)),
    )


def diag_commutator(ctx: BinetContext, n: int) -> VerificationReport:
    """HF_n·HJ_n − HJ_n·HF_n, printed and sign-corrected right sides."""
    if n < 0:
        raise ValueError("diag commutator requires n >= 0")
    params = ctx.params
    p, q = params.p, params.q
    fibs = fib_params(p, q)
    lhs = _prod(fibs, n, params, n) - _prod(params, n, fibs, n)
    _, fib_shifted, _, _ = _rhs_consts(p, q)
    scale = 2 * params.a * _neg_q_pow(q, n + 1)
    printed = fib_shifted.scale(scale)
    corrected = fib_shifted.scale(-scale)
    return _report(
        "diag-commutator",
        params,
        (n,),
        lhs,
        (("printed", printed, False), ("sign-corrected", corrected, True)),
    )


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


class SuiteResult:
    """The reports of one :func:`run_suite` call, in run order."""

    def __init__(self, suite: str, reports: list[VerificationReport] | None = None) -> None:
        self.suite = suite
        self.reports = [] if reports is None else reports

    @property
    def cases(self) -> int:
        return len(self.reports)

    @property
    def verdict_counts(self) -> dict[str, int]:
        counts = {VERDICT_PASS: 0, VERDICT_AUDIT: 0, VERDICT_FAIL: 0}
        for report in self.reports:
            counts[report.verdict] += 1
        return counts

    @property
    def printed_failures(self) -> list[VerificationReport]:
        return [r for r in self.reports if r.verdict != VERDICT_PASS]

    @property
    def extended_cases(self) -> int:
        return sum(1 for r in self.reports if r.case.extended)

    @property
    def extended_failures(self) -> int:
        return sum(1 for r in self.reports if r.case.extended and not r.authoritative_passed)

    @property
    def all_authoritative_pass(self) -> bool:
        """Gate: every non-extended case matched its authoritative variant."""
        return all(r.authoritative_passed for r in self.reports if not r.case.extended)


def run_suite(config: GridConfig | None = None, suite: str = "all") -> SuiteResult:
    """Evaluate one identity (or all) over the grid, deterministically ordered.

    Extended-domain probes (negative leading index, flagged on the case)
    are included for catalan/cassini/docagne but excluded from the
    :attr:`SuiteResult.all_authoritative_pass` gate.
    """
    if config is None:
        config = DEFAULT_GRID
    if suite != "all" and suite not in SUITES:
        raise GridConfigError(f"unknown suite {suite!r}; expected 'all' or one of {SUITES}")
    names = SUITES if suite == "all" else (suite,)
    param_sets = grid_param_sets(config)
    pq_pairs = _distinct_pq(param_sets)
    nmax, rmax = config.nmax, config.rmax
    result = SuiteResult(suite=suite)
    add = result.reports.append
    for name in names:
        if name == "catalan":
            for params in param_sets:
                ctx = _ctx(params)
                for m in range(nmax + 1):
                    for r in range(min(m, rmax) + 1):
                        add(catalan(ctx, m, r))
                for m in EXTENDED_RANGE:
                    for r in range(min(rmax, 3) + 1):
                        add(catalan(ctx, m, r, extended=True))
        elif name == "cassini":
            for params in param_sets:
                ctx = _ctx(params)
                for m in range(1, nmax + 1):
                    add(cassini(ctx, m))
                for m in EXTENDED_RANGE:
                    add(cassini(ctx, m, extended=True))
        elif name == "docagne":
            for params in param_sets:
                ctx = _ctx(params)
                for r in range(rmax + 1):
                    for m in range(nmax + 1):
                        add(docagne(ctx, r, m))
                    for m in EXTENDED_RANGE:
                        add(docagne(ctx, r, m, extended=True))
        elif name == "adjacent-commutator":
            for params in param_sets:
                ctx = _ctx(params)
                for r in range(rmax + 1):
                    add(adjacent_commutator(ctx, r))
        elif name == "lucas-fib-exchange":
            for p, q in pq_pairs:
                params = fib_params(p, q)
                for n in range(nmax + 1):
                    for r in range(rmax + 1):
                        for s in range(rmax + 1):
                            add(lucas_fib_exchange(params, n, r, s))
        elif name == "square-difference":
            for p, q in pq_pairs:
                params = fib_params(p, q)
                for n in range(nmax + 1):
                    add(square_difference(params, n))
        elif name == "horadam-commutator":
            for params in param_sets:
                ctx = _ctx(params)
                for n in range(nmax + 1):
                    for m in range(n, nmax + 1):
                        add(horadam_commutator(ctx, n, m))
        elif name == "diag-commutator":
            for params in param_sets:
                ctx = _ctx(params)
                for n in range(nmax + 1):
                    add(diag_commutator(ctx, n))
    return result
