"""Scalar and hybrid-valued (p,q)-Fibonacci, Lucas and Horadam sequences.

All sequences obey X_n = p·X_{n−1} + q·X_{n−2} and are extended to
negative indices through the backward step X_{n−2} = (X_n − p·X_{n−1})/q,
which is exact in rationals (and is why q = 0 is rejected).  Every value
comes from one evaluator: seek to an index by companion-matrix powering,
then step with the recurrence.  Values are ``int`` while they are
integral: every value at n ≥ 0, and every value at all n when |q| = 1.
A value is a :class:`~fractions.Fraction` only where it is not an integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .exactarith import roots
from .hybrid import HybridNumber

SEQ_KINDS = ("fib", "lucas", "horadam")


class _HoradamFields(NamedTuple):
    p: int
    q: int
    a: int
    b: int


class HoradamParams(_HoradamFields):
    """Recurrence parameters (p, q) and seed values (a, b) = (X_0, X_1)."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, a: int, b: int) -> HoradamParams:
        if q == 0:
            raise ValueError("q must be nonzero (backward recurrence divides by q)")
        if p * p + 4 * q == 0:
            raise ValueError("p²+4q must be nonzero (distinct characteristic roots)")
        return super().__new__(cls, p, q, a, b)

    @classmethod
    def _make(cls, iterable) -> HoradamParams:  # so that _replace validates too
        return cls(*iterable)

    @property
    def discriminant(self) -> int:
        return self.p * self.p + 4 * self.q


def fib_params(p: int, q: int) -> HoradamParams:
    return HoradamParams(p, q, 0, 1)


def lucas_params(p: int, q: int) -> HoradamParams:
    return HoradamParams(p, q, 2, p)


def resolve_params(params: HoradamParams, kind: str) -> HoradamParams:
    """Specialize the seed values for the requested sequence kind."""
    if kind == "fib":
        return fib_params(params.p, params.q)
    if kind == "lucas":
        return lucas_params(params.p, params.q)
    if kind == "horadam":
        return params
    raise ValueError(f"unknown sequence kind {kind!r}; expected one of {SEQ_KINDS}")


def _div_q(value: int, q: int) -> int | Fraction:
    """value/q exactly for a nonzero divisor q (a power of q times a seek
    denominator): an int when q divides it, otherwise a Fraction."""
    quot, rem = divmod(value, q)
    return quot if rem == 0 else Fraction(value, q)


def _mat_mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _mat_pow(m, n: int):
    result = (1, 0, 0, 1)
    while n:
        if n & 1:
            result = _mat_mul(result, m)
        m = _mat_mul(m, m)
        n >>= 1
    return result


def _seek(params: HoradamParams, n: int) -> tuple[int | Fraction, int | Fraction]:
    """(X_n, X_{n+1}) by companion-matrix powering over Z, O(log |n|) products.

    [X_{n+1}, X_n] = [[p, q], [1, 0]]ⁿ · [X_1, X_0].  For n = −k < 0 the
    inverse is [[0, q], [1, −p]]ᵏ / qᵏ: the integer matrix is powered and
    the division by qᵏ happens once, at the end.
    """
    p, q, a, b = params
    if n >= 0:
        m = _mat_pow((p, q, 1, 0), n)
        return m[2] * b + m[3] * a, m[0] * b + m[1] * a
    m = _mat_pow((0, q, 1, -p), -n)
    q_k = q ** -n
    return _div_q(m[2] * b + m[3] * a, q_k), _div_q(m[0] * b + m[1] * a, q_k)


def horadam(params: HoradamParams, n: int) -> int | Fraction:
    """The n-th sequence value for any signed index, in O(log |n|) products."""
    return _seek(params, n)[0]


horadam_fast = horadam  # the published name; there is one O(log |n|) evaluator


def fib(p: int, q: int, n: int) -> int | Fraction:
    """(p,q)-Fibonacci number: seeds (0, 1)."""
    return horadam(fib_params(p, q), n)


def lucas(p: int, q: int, n: int) -> int | Fraction:
    """(p,q)-Lucas number: seeds (2, p)."""
    return horadam(lucas_params(p, q), n)


class SeqCache:
    """Memoized two-sided sequence evaluator.

    Seeks to the first index asked for, then grows outward one recurrence
    step at a time: the memo holds just the contiguous span requested, a
    window [lo, hi] costs O(log |lo|) products plus its length, and every
    entry satisfies the recurrence exactly.  Each frontier keeps its last
    two values as integer numerators over one denominator: the anchor's,
    times qᵏ after k backward steps.  A step is integer arithmetic, and an
    entry becomes a rational once, when it is stored.  Instances are
    mutable and single-owner; use one per task (or the pure :func:`horadam`
    path) when evaluating concurrently.
    """

    def __init__(self, params: HoradamParams) -> None:
        self.params = params
        self._memo: dict[int, int | Fraction] = {}

    def _anchor(self, n: int) -> None:
        x0, x1 = _seek(self.params, n)
        den = lcm(x0.denominator, x1.denominator)
        num0, num1 = x0.numerator * (den // x0.denominator), x1.numerator * (den // x1.denominator)
        self._memo[n], self._memo[n + 1] = x0, x1
        self._lo, self._hi = n, n + 1
        self._back = self._fwd = (num0, num1, den)  # (X_k, X_{k+1}) · den, den

    def value(self, n: int) -> int | Fraction:
        memo = self._memo
        if not memo:
            self._anchor(n)
        p, q = self.params.p, self.params.q
        if self._hi < n:
            prev, cur, den = self._fwd
            for k in range(self._hi + 1, n + 1):
                prev, cur = cur, p * cur + q * prev
                memo[k] = cur if den == 1 else _div_q(cur, den)
            self._fwd, self._hi = (prev, cur, den), n
        elif self._lo > n:
            cur, nxt, den = self._back
            for k in range(self._lo - 1, n - 1, -1):
                cur, nxt, den = nxt - p * cur, q * cur, q * den
                memo[k] = cur if den == 1 else _div_q(cur, den)
            self._back, self._lo = (cur, nxt, den), n
        return memo[n]

    def window(self, lo: int, hi: int) -> list[int | Fraction]:
        """[X_lo, …, X_hi], extending the memo to cover them."""
        self.value(lo)
        self.value(hi)
        memo = self._memo
        return [memo[k] for k in range(lo, hi + 1)]

    def hybrid(self, n: int) -> HybridNumber:
        """Hybrid-valued element (X_n, X_{n+1}, X_{n+2}, X_{n+3})."""
        return HybridNumber(*self.window(n, n + 3))


def hybrid_seq(params: HoradamParams, kind: str, n: int) -> HybridNumber:
    """Hybrid-valued sequence element (X_n, X_{n+1}, X_{n+2}, X_{n+3})."""
    return SeqCache(resolve_params(params, kind)).hybrid(n)


class ScalarIdentityReport(NamedTuple):
    ok: bool
    checked: int
    first_failure: str | None


def verify_scalar_identities(params: HoradamParams, rmax: int) -> ScalarIdentityReport:
    """Audit the scalar identities the closed-form machinery relies on.

    For r in [0, rmax] checks, exactly:
      * F_{2r} = F_r · L_r
      * (p²+4q) · F_r² = L_{2r} − 2(−q)^r
      * F_{−r} = −(−q)^{−r} · F_r
      * L_r = rational part of α^r + β^r
    """
    p, q = params.p, params.q
    alpha, beta = roots(p, q)
    disc = params.discriminant
    checked = 0
    for r in range(rmax + 1):
        fr, lr = fib(p, q, r), lucas(p, q, r)
        neg_q_r = (-q) ** r
        failures = []
        if fib(p, q, 2 * r) != fr * lr:
            failures.append(f"F_2r != F_r*L_r at r={r}")
        if disc * fr * fr != lucas(p, q, 2 * r) - 2 * neg_q_r:
            failures.append(f"(p²+4q)F_r² != L_2r - 2(-q)^r at r={r}")
        if fib(p, q, -r) != -(Fraction(-q) ** (-r)) * fr:
            failures.append(f"F_-r != -(-q)^-r F_r at r={r}")
        if (alpha**r + beta**r).rational_part() != lr:
            failures.append(f"L_r != rational_part(α^r+β^r) at r={r}")
        checked += 4
        if failures:
            return ScalarIdentityReport(False, checked, failures[0])
    return ScalarIdentityReport(True, checked, None)
