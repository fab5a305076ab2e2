"""Grid verification of the hybrid sequence identities, with an audit mode.

Each identity is a table row with two independent sides.  The left side is
data, the keys of two products of recurrence windows, read only through
:meth:`Evaluator.prod`.  The right side is a function of scalar sequence
values (:meth:`Evaluator.scalar`) and constant hybrids (``Evaluator.pq``,
the :class:`~hybridseq.binet.BinetContext`) alone.  So a bug in one side
cannot silently validate the other; ``TestIndependence`` in
``tests/test_identities.py`` enforces this rule on every row.

Both sides are pairs (N, den) standing for N/den, N a hybrid with ``int``
components and den a positive ``int``.  The left side multiplies and
subtracts numerators; the right side folds the scalar factors of each term
into one ratio and applies it to the numerators of a constant hybrid.  The
two meet only in one cross-multiplied comparison, and a report reduces a
value only when it is read.

Three identities are commonly stated with a sign or coefficient slip; for
those the right side gives the form the derivation yields (``proof-form``
or ``sign-corrected``) next to the typeset one (``printed``).  The
corrected variant is authoritative: it gates suite success, while
``printed`` outcomes are only audited.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import chain, combinations_with_replacement, product
from math import lcm
from threading import Lock
from typing import Callable, Iterable, NamedTuple

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


class VariantResult(namedtuple("VariantResult", "label value passed authoritative")):
    """One right side's outcome: its label, its value (kept as a pair and
    reduced on read), whether it matched, and whether it is authoritative."""

    __slots__ = ()
    value = property(lambda self: _value(self[1]))


class VerificationReport(namedtuple("VerificationReport", "case lhs variants verdict")):
    """One case's verdict: its IdentityCase, the left side (kept as a pair,
    reduced on read) and the variants, ``printed`` first and the
    authoritative one last (the same one when there is only one)."""

    __slots__ = ()
    lhs = property(lambda self: _value(self[1]))
    rhs_printed = property(lambda self: self[2][0].value)
    authoritative_passed = property(lambda self: self[2][-1].passed)


# --- values as (integer numerators, positive denominator) pairs ---

_hybrid = partial(tuple.__new__, HybridNumber)  # from four components, unchecked


def _scaled(values) -> tuple[HybridNumber, int]:
    """Four int/Fraction components as (N, den), N/den equal to them."""
    den = lcm(*(v.denominator for v in values))
    return _hybrid(v.numerator * (den // v.denominator) for v in values), den


def _value(pair) -> HybridNumber:
    """The reduced hybrid of a pair: ``int`` components where integral.
    A hybrid (a record built with a reduced value) is returned as it is."""
    if isinstance(pair, HybridNumber):
        return pair
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


# --- the memo state of one run ---

_CacheInfo = namedtuple("CacheInfo", "hits misses")


class _Lookups:
    """Hits and misses of one Evaluator memo, summed over every run_suite call
    of the process.  Counters only: the values stay with the run."""

    def __init__(self) -> None:
        self._lock = Lock()
        self._hits = self._misses = 0

    def add(self, lookups: int, misses: int) -> None:
        with self._lock:
            self._hits += lookups - misses
            self._misses += misses

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses)


_hyb, _prod = _Lookups(), _Lookups()


def _rhs_consts(p: int, q: int) -> tuple[HybridNumber, HybridNumber, HybridNumber, HybridNumber]:
    """(HL₀ − cross_shift, HF₀ − omega, HL₀ + r-shift, HF₀ + s-shift)."""
    ctx, scalar = make_context(fib_params(p, q)), HybridNumber.from_scalar
    return (ctx.lucas0 - scalar(ctx.cross_shift), ctx.fib0 - ctx.omega,
            ctx.lucas0 + scalar(ctx.square_lucas_shift), ctx.fib0 + scalar(ctx.square_fib_shift))


def _neg_q_pow(q: int, n: int) -> int | Fraction:
    return (-q) ** n if n >= 0 else Fraction(1, (-q) ** -n)


# What the cases of one (p, q) share: its Fibonacci and Lucas parameter
# sets, and the four _rhs_consts hybrids as pairs.
_PQ = namedtuple("_PQ", "fibs lucs lucas_shifted fib_shifted lucas_sq fib_sq")


def _pq(pair: tuple[int, int]) -> _PQ:
    return _PQ(fib_params(*pair), lucas_params(*pair), *map(_scaled, _rhs_consts(*pair)))


def _window_pair(seqs: dict[HoradamParams, SeqCache], key) -> tuple[HybridNumber, int]:
    """HJ_n as a pair: the window X_n … X_{n+3} over its common denominator."""
    params, n = key
    return _scaled(seqs[params].window(n, n + 3))


class _Memo(dict):
    """A dict that makes each missing value from its key, once."""

    def __init__(self, make) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


class Evaluator:
    """The memo state of one verification run: per parameter set J, a ``SeqCache``
    and (J, F, L) with F, L the Fibonacci and Lucas sets of its (p, q); HJ_n as
    (N, den) pairs, their products and the per-(p, q) values.  No value outlives
    the run (or direct verifier call) that made it, so two runs on two threads
    share none; :func:`run_suite` clears the products, the only part that grows
    with the grid, before each unit."""

    def __init__(self) -> None:
        self._seqs: dict[HoradamParams, SeqCache] = _Memo(SeqCache)
        self._hybs: dict[tuple, tuple[HybridNumber, int]] = _Memo(partial(_window_pair, self._seqs))
        self._prods: dict[tuple, tuple[HybridNumber, int]] = {}
        self.pq: dict[tuple[int, int], _PQ] = _Memo(_pq)
        self.sets = _Memo(lambda J: (J, fib_params(*J[:2]), lucas_params(*J[:2])))
        self.prod_lookups = self.prod_misses = 0

    def scalar(self, params: HoradamParams, n: int) -> int | Fraction:
        return self._seqs[params].value(n)

    def prod(self, pa: HoradamParams, na: int,
             pb: HoradamParams, nb: int) -> tuple[HybridNumber, int]:
        """HJ_na·HJ_nb (over pa and pb) as a pair."""
        self.prod_lookups += 1
        key = pa, na, pb, nb
        pair = self._prods.get(key)
        if pair is None:
            self.prod_misses += 1
            (x, dx), (y, dy) = self._hybs[pa, na], self._hybs[pb, nb]
            pair = self._prods[key] = x * y, dx * dy
        return pair


# --- the right sides: rhs(ev, unit, *indices) -> (printed, corrected or None,
# label), reading only ev.scalar, ev.pq and the unit (a context, or params) ---


def _catalan_rhs(ev, ctx, m, r):
    pq, q = ev.pq[ctx.params[:2]], ctx.params.q
    outer = (-ctx.weight_product, _neg_q_pow(q, m), ev.scalar(pq.fibs, -r))
    return _rhs((pq.lucas_shifted, ev.scalar(pq.fibs, r), *outer),
                (pq.fib_shifted, q, ev.scalar(pq.lucs, r), *outer)), None, ""


def _cassini_rhs(ev, ctx, m):
    (p, q), pq = ctx.params[:2], ev.pq[ctx.params[:2]]
    outer = (ctx.weight_product, _neg_q_pow(q, m - 1))
    rhs = _rhs((pq.lucas_shifted, *outer), (pq.fib_shifted, p * q, *outer))
    if not _same(rhs, _catalan_rhs(ev, ctx, m, 1)[0]):
        raise ArithmeticError(f"cassini RHS disagrees with catalan RHS at r=1 for m={m}")
    return rhs, None, ""


def _docagne_rhs(ev, ctx, r, m):
    pq, q = ev.pq[ctx.params[:2]], ctx.params.q
    outer = (_neg_q_pow(q, m), ctx.weight_product)
    return _rhs((pq.lucas_shifted, ev.scalar(pq.fibs, r - m), *outer),
                (pq.fib_shifted, q, ev.scalar(pq.lucs, r - m), *outer)), None, ""


def _adjacent_rhs(ev, ctx, r):
    pq, q = ev.pq[ctx.params[:2]], ctx.params.q
    return _rhs((pq.fib_shifted, 2, _neg_q_pow(q, r + 1), ctx.weight_product)), None, ""


def _exchange_rhs(ev, params, n, r, s):
    pq = ev.pq[params[:2]]
    term = (pq.lucas_shifted, 2, _neg_q_pow(params.q, n + r), ev.scalar(pq.fibs, s - r))
    return _rhs(term), None, ""


def _square_rhs(ev, params, n):
    pq, disc = ev.pq[params[:2]], params.discriminant
    f2n = ev.scalar(pq.fibs, 2 * n)
    lucas_term = (pq.lucas_sq, Fraction(disc - 1, disc), ev.scalar(pq.lucs, 2 * n))
    cross_term = (pq.lucas_shifted, 2, Fraction(disc + 1, disc), _neg_q_pow(params.q, n))
    return (_rhs(lucas_term, (pq.fib_sq, f2n), cross_term),
            _rhs(lucas_term, (pq.fib_sq, disc - 1, f2n), cross_term), "proof-form")


def _horadam_rhs(ev, ctx, n, m):
    J = ctx.params
    printed = _rhs((ev.pq[J[:2]].fib_shifted, 2, _neg_q_pow(J.q, n + 1), ev.scalar(J, m - n)))
    return printed, (-printed[0], printed[1]), "proof-form"


def _diag_rhs(ev, ctx, n):
    J = ctx.params
    printed = _rhs((ev.pq[J[:2]].fib_shifted, 2, J.a, _neg_q_pow(J.q, n + 1)))
    return printed, (-printed[0], printed[1]), "sign-corrected"


# --- the suite table ---

EXTENDED_RANGE = range(-5, 0)


def _catalan_indices(n: int, r: int) -> Iterable[tuple[int, int]]:
    yield from ((m, k) for m in range(n + 1) for k in range(min(m, r) + 1))
    yield from product(EXTENDED_RANGE, range(min(r, 3) + 1))


def _catalan_count(n: int, r: int) -> int:
    k = min(n, r)  # m in [0, k] has m + 1 cases, m in (k, n] has k + 1
    return (k + 1) * (k + 2) // 2 + (n - k) * (k + 1)


class _Suite(NamedTuple):
    per_pq: bool  # once per distinct (p, q), else once per parameter set
    indices: Callable[[int, int], Iterable[tuple[int, ...]]]  # from (nmax, rmax)
    count: Callable[[int, int], int]  # how many have no negative index, in closed form
    lhs: Callable[..., tuple[tuple, tuple]]  # (J, F, L, *indices) -> two product keys
    rhs: Callable[..., tuple]  # a right side, above
    probes: Callable[[int, int], int] = lambda n, r: 0  # how many have one, in closed form
    domain: Callable[..., bool] = lambda *indices: True  # not asked of a probe
    domain_error: str = ""


# A case is extended exactly when one of its indices is negative.  In lhs,
# J is the unit's parameter set, F and L the Fibonacci and Lucas ones.
_SUITE_TABLE = {
    "catalan": _Suite(
        False, _catalan_indices, _catalan_count,
        lambda J, F, L, m, r: ((J, m, J, m), (J, m + r, J, m - r)), _catalan_rhs,
        lambda n, r: len(EXTENDED_RANGE) * (min(r, 3) + 1),
        lambda m, r: m >= r >= 0, "catalan requires m >= r >= 0"),
    "cassini": _Suite(
        False, lambda n, r: product(chain(range(1, n + 1), EXTENDED_RANGE)), lambda n, r: n,
        lambda J, F, L, m: ((J, m, J, m), (J, m + 1, J, m - 1)), _cassini_rhs,
        lambda n, r: len(EXTENDED_RANGE), lambda m: m >= 1, "cassini requires m >= 1"),
    "docagne": _Suite(
        False, lambda n, r: product(range(r + 1), chain(range(n + 1), EXTENDED_RANGE)),
        lambda n, r: (r + 1) * (n + 1),
        lambda J, F, L, r, m: ((J, r, J, m + 1), (J, r + 1, J, m)), _docagne_rhs,
        lambda n, r: (r + 1) * len(EXTENDED_RANGE)),
    "adjacent-commutator": _Suite(
        False, lambda n, r: product(range(r + 1)), lambda n, r: r + 1,
        lambda J, F, L, r: ((J, r + 1, J, r), (J, r, J, r + 1)), _adjacent_rhs,
        domain=lambda r: r >= 0, domain_error="adjacent commutator requires r >= 0"),
    "lucas-fib-exchange": _Suite(
        True, lambda n, r: product(range(n + 1), range(r + 1), range(r + 1)),
        lambda n, r: (n + 1) * (r + 1) ** 2,
        lambda J, F, L, n, r, s: ((L, n + r, F, n + s), (L, n + s, F, n + r)), _exchange_rhs),
    "square-difference": _Suite(
        True, lambda n, r: product(range(n + 1)), lambda n, r: n + 1,
        lambda J, F, L, n: ((L, n, L, n), (F, n, F, n)), _square_rhs,
        domain=lambda n: n >= 0, domain_error="square difference requires n >= 0"),
    "horadam-commutator": _Suite(
        False, lambda n, r: combinations_with_replacement(range(n + 1), 2),
        lambda n, r: (n + 1) * (n + 2) // 2,
        lambda J, F, L, n, m: ((F, n, J, m), (J, m, F, n)), _horadam_rhs,
        domain=lambda n, m: m >= n >= 0, domain_error="horadam commutator requires m >= n >= 0"),
    "diag-commutator": _Suite(
        False, lambda n, r: product(range(n + 1)), lambda n, r: n + 1,
        lambda J, F, L, n: ((F, n, J, n), (J, n, F, n)), _diag_rhs,
        domain=lambda n: n >= 0, domain_error="diag commutator requires n >= 0"),
}


# --- the identities: each runs its row through the one report builder; it
# takes the run's Evaluator as ``ev``, and a direct call makes its own ---


def _build_report(name, unit, indices, ev, extended=False) -> VerificationReport:
    """One case: domain check, both sides, verdict; a corrected variant is authoritative."""
    row = _SUITE_TABLE[name]
    if not (extended or row.domain(*indices)):
        raise ValueError(row.domain_error)
    ev = ev or Evaluator()
    J, F, L = ev.sets[unit if row.per_pq else unit.params]
    params = F if row.per_pq else J  # a per-(p, q) case reports F
    first, second = row.lhs(J, F, L, *indices)
    lhs = _lhs(ev.prod(*first), ev.prod(*second))
    printed, corrected, label = row.rhs(ev, unit, *indices)
    ok = _same(lhs, printed)
    if corrected is None:
        variants = (VariantResult("printed", printed, ok, True),)
        verdict = VERDICT_PASS if ok else VERDICT_FAIL
    else:
        fixed = _same(lhs, corrected)
        variants = (VariantResult("printed", printed, ok, False),
                    VariantResult(label, corrected, fixed, True))
        verdict = VERDICT_PASS if ok else VERDICT_AUDIT if fixed else VERDICT_FAIL
    return VerificationReport(IdentityCase(name, params, indices, extended), lhs, variants, verdict)


def catalan(ctx: BinetContext, m: int, r: int, *, extended: bool = False,
            ev: Evaluator | None = None) -> VerificationReport:
    """HJ_m² − HJ_{m+r}·HJ_{m−r} against its closed form; domain m ≥ r ≥ 0."""
    return _build_report("catalan", ctx, (m, r), ev, extended)


def cassini(ctx: BinetContext, m: int, *, extended: bool = False,
            ev: Evaluator | None = None) -> VerificationReport:
    """HJ_m² − HJ_{m+1}·HJ_{m−1} against its closed form; domain m ≥ 1.

    The right side must coincide with the catalan right side at r = 1
    (they differ only by the F_{−1} = 1/q reduction); that consistency is
    asserted on every call.
    """
    return _build_report("cassini", ctx, (m,), ev, extended)


def docagne(ctx: BinetContext, r: int, m: int, *, extended: bool = False,
            ev: Evaluator | None = None) -> VerificationReport:
    """HJ_r·HJ_{m+1} − HJ_{r+1}·HJ_m against its closed form; any integers."""
    return _build_report("docagne", ctx, (r, m), ev, extended)


def adjacent_commutator(ctx: BinetContext, r: int, *,
                        ev: Evaluator | None = None) -> VerificationReport:
    """HJ_{r+1}·HJ_r − HJ_r·HJ_{r+1} = 2(−q)^{r+1}·A·B·(HF₀ − omega)."""
    return _build_report("adjacent-commutator", ctx, (r,), ev)


def lucas_fib_exchange(params: HoradamParams, n: int, r: int, s: int, *,
                       ev: Evaluator | None = None) -> VerificationReport:
    """HL_{n+r}·HF_{n+s} − HL_{n+s}·HF_{n+r} = 2(−q)^{n+r}·F_{s−r}·(HL₀ − cross_shift)."""
    return _build_report("lucas-fib-exchange", params, (n, r, s), ev)


def square_difference(params: HoradamParams, n: int, *,
                      ev: Evaluator | None = None) -> VerificationReport:
    """HL_n² − HF_n², with the as-typeset and derivation-implied right sides.

    The typeset statement carries the F_{2n} term without the (p²+4q−1)
    factor that the derivation produces; both variants are evaluated.
    """
    return _build_report("square-difference", params, (n,), ev)


def horadam_commutator(ctx: BinetContext, n: int, m: int, *,
                       ev: Evaluator | None = None) -> VerificationReport:
    """HF_n·HJ_m − HJ_m·HF_n, printed and sign-flipped right sides.

    The typeset statement reads 2(−q)^{n+1}·J_{m−n}·(HF₀ − omega); the
    derivation yields its negative.  Domain m ≥ n ≥ 0.
    """
    return _build_report("horadam-commutator", ctx, (n, m), ev)


def diag_commutator(ctx: BinetContext, n: int, *,
                    ev: Evaluator | None = None) -> VerificationReport:
    """HF_n·HJ_n − HJ_n·HF_n, printed and sign-corrected right sides."""
    return _build_report("diag-commutator", ctx, (n,), ev)


# --- grid configuration and the suite runner ---


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
    try:
        return token if token == "p" else int(token)
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
        # int() reads "1_0" as 10; like parse_rational, the grid format does not
        bad = [item.strip() for item in value.replace(":", ",").split(",") if "_" in item]
        if bad and key in ("p", "q", "ab", "nmax", "rmax"):
            raise GridConfigError(
                f"line {lineno}: invalid {key} value {bad[0]!r}: no '_' may stand inside it"
            )
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
    return list(dict.fromkeys(
        HoradamParams(p, q, p if a == "p" else a, p if b == "p" else b)
        for p in sorted(config.ps) for q in sorted(config.qs) if p * p + 4 * q != 0
        for a, b in config.ab))


def _suite_names(suite: str) -> tuple[str, ...]:
    if suite != "all" and suite not in SUITES:
        raise GridConfigError(f"unknown suite {suite!r}; expected 'all' or one of {SUITES}")
    return SUITES if suite == "all" else (suite,)


def case_count(config: GridConfig, suite: str = "all", *, gated: bool = False) -> int:
    """The number of cases :func:`run_suite` evaluates, from the grid alone;
    with ``gated``, only those the gate counts (no index negative)."""
    param_sets = grid_param_sets(config)
    n_pq = len({(params.p, params.q) for params in param_sets})
    n, r = config.nmax, config.rmax
    return sum((row.count(n, r) + (0 if gated else row.probes(n, r)))
               * (n_pq if row.per_pq else len(param_sets))
               for row in map(_SUITE_TABLE.get, _suite_names(suite)))


class SuiteResult:
    """The running totals of one :func:`run_suite` call, and its reports in
    run order when no sink took them.  ``all_authoritative_pass`` is the
    gate: every non-extended case matched its authoritative variant."""

    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.reports: list[VerificationReport] = []
        self.cases = self.extended_cases = self.extended_failures = 0
        self.verdict_counts = {VERDICT_PASS: 0, VERDICT_AUDIT: 0, VERDICT_FAIL: 0}
        self.all_authoritative_pass = True

    def add(self, report: VerificationReport) -> None:
        """Count one report into the totals."""
        self.cases += 1
        self.verdict_counts[report.verdict] += 1
        if report.case.extended:
            self.extended_cases += 1
            self.extended_failures += not report.authoritative_passed
        elif not report.authoritative_passed:
            self.all_authoritative_pass = False

    def tally(self) -> tuple[dict[str, int], int, int, bool]:
        """(verdict counts, extended cases, extended failures, gate)."""
        return (dict(self.verdict_counts), self.extended_cases, self.extended_failures,
                self.all_authoritative_pass)

    # the kept reports whose printed variant failed
    printed_failures = property(lambda self: [r for r in self.reports if r.verdict != VERDICT_PASS])


def run_suite(config: GridConfig | None = None, suite: str = "all",
              sink: Callable[[VerificationReport], object] | None = None) -> SuiteResult:
    """Evaluate one identity (or all) over the grid, deterministically ordered.

    Each report is counted into the result's totals as it is made, then
    handed to ``sink`` if one is given (and not kept) or kept in
    ``result.reports``.  Extended-domain probes (a negative index, flagged
    on the case; catalan, cassini and docagne have them) are left out of the
    :attr:`SuiteResult.all_authoritative_pass` gate.  One :class:`Evaluator`
    holds the run's memo state, its products only for one unit (one suite
    over one parameter set or (p, q)).  The loop builds only acyclic
    records, so the cyclic collector is paused while it runs and the
    caller's setting is restored afterwards.
    """
    config = DEFAULT_GRID if config is None else config
    names = _suite_names(suite)
    param_sets = grid_param_sets(config)
    fibs = [fib_params(*pair) for pair in dict.fromkeys((ps.p, ps.q) for ps in param_sets)]
    per_params = not all(_SUITE_TABLE[name].per_pq for name in names)
    contexts = [make_context(params) for params in param_sets] if per_params else []
    ev = Evaluator()
    result = SuiteResult(suite=suite)
    tally, emit = result.add, result.reports.append if sink is None else sink
    collecting = gc.isenabled()
    gc.disable()
    try:
        for name in names:
            row = _SUITE_TABLE[name]
            verify = globals()[name.replace("-", "_")]  # so that a rebinding reaches it
            cases = [(idx, min(idx) < 0) for idx in row.indices(config.nmax, config.rmax)]
            for unit in fibs if row.per_pq else contexts:
                ev._prods.clear()
                for indices, extended in cases:
                    report = (verify(unit, *indices, extended=True, ev=ev) if extended
                              else verify(unit, *indices, ev=ev))
                    tally(report)
                    emit(report)
    finally:  # each product made read two HJ_n, and each HJ_n is kept
        _hyb.add(2 * ev.prod_misses, len(ev._hybs))
        _prod.add(ev.prod_lookups, ev.prod_misses)
        if collecting:
            gc.enable()
    return result
