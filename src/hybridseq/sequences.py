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


def _div_q(value: int | Fraction, q: int) -> int | Fraction:
    """value/q exactly: an int when q divides it, otherwise a Fraction."""
    if type(value) is int:
        quot, rem = divmod(value, q)
        return quot if rem == 0 else Fraction(value, q)
    value = value / q
    return value.numerator if value.denominator == 1 else value


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
    entry satisfies the recurrence exactly.  Instances are mutable and
    single-owner; use one per task (or the pure :func:`horadam` path) when
    evaluating concurrently.
    """

    def __init__(self, params: HoradamParams) -> None:
        self.params = params
        self._memo: dict[int, int | Fraction] = {}

    def value(self, n: int) -> int | Fraction:
        memo = self._memo
        if not memo:
            memo[n], memo[n + 1] = _seek(self.params, n)
            self._lo, self._hi = n, n + 1
        p, q = self.params.p, self.params.q
        while self._hi < n:
            self._hi += 1
            value = p * memo[self._hi - 1] + q * memo[self._hi - 2]
            if type(value) is Fraction and value.denominator == 1:
                value = value.numerator
            memo[self._hi] = value
        while self._lo > n:
            self._lo -= 1
            memo[self._lo] = _div_q(memo[self._lo + 2] - p * memo[self._lo + 1], q)
        return memo[n]

    def hybrid(self, n: int) -> HybridNumber:
        """Hybrid-valued element (X_n, X_{n+1}, X_{n+2}, X_{n+3})."""
        value = self.value
        return HybridNumber(value(n), value(n + 1), value(n + 2), value(n + 3))


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
