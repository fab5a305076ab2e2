"""Exact rational arithmetic and the quadratic extension ring Q[s]/(s²−D).

Rationals are plain ``int`` values where they are integral and
:class:`fractions.Fraction` values otherwise (always reduced, positive
denominator, unbounded precision).  :class:`QuadExt` adjoins a
formal square root ``s`` with ``s² = D`` to the rationals; the closed-form
sequence evaluation lives entirely in this ring, so ``D`` may be negative
or a perfect square and no floating point is ever involved.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import index

DIGIT_CAP = 4300  # most digits of a numerator or denominator (CPython's int-str limit)
# A decimal, int(whole + frac)·10^(exp − len(frac)); Fraction refuses a longer exp
_DECIMAL = re.compile(rf"[-+]?(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d{{1,{DIGIT_CAP}}}))?")


class IrrationalResidueError(ArithmeticError):
    """A value expected to be rational carries a nonzero s-component."""


def _parse(text: str, what: str, read):
    """read(text), blanks around it allowed, or a ValueError that names the text
    and, where there is one, the rule it breaks (counted, never built)."""
    token = text.strip()
    decimal = _DECIMAL.fullmatch(token)
    whole, frac, exp = decimal.groups("") if decimal else ("", "", "")
    digits, shift = len((whole + frac).lstrip("0")), int(exp or 0) - len(frac)
    if "_" in token or any(map(str.isspace, token)):
        reason = ": no '_' or blank may stand inside it"
    elif max(digits + shift, digits, 1 - shift) > DIGIT_CAP:
        reason = f": more than {DIGIT_CAP} digits (the digit cap)"
    else:
        try:
            return read(token)
        except ZeroDivisionError:
            reason = ": zero denominator"
        except ValueError:
            reason = ""
    raise ValueError(f"invalid {what} {text!r}{reason}")


def parse_rational(text: str) -> Fraction:
    """Parse the wire format ``"num/den"`` (or integer shorthand ``"5"``, or
    a decimal such as ``"-0.25"`` or ``"1e-200"``), blanks around it allowed.

    The format is what ``Fraction`` reads on Python 3.10 on every version:
    ``_`` digit separators (read from 3.11 on) and blanks inside, such as
    around ``/`` (read from 3.12 on), are refused, and so are a zero
    denominator and a decimal of more than DIGIT_CAP digits (``"1e5000"``).
    """
    return _parse(text, "rational", Fraction)


def parse_integer(text: str, what: str = "integer") -> int:
    """An integer as ``int`` reads it, under :func:`parse_rational`'s rules;
    ``what`` names it in an error message."""
    return _parse(text, what, int)


def format_rational(value: int | Fraction) -> str:
    """Render an int or a Fraction in wire format: ``"num/den"``, integers as ``"5"``."""
    if type(value) is int:
        return str(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _rational(num: int, den: int) -> int | Fraction:
    """num/den as an int when den divides num, otherwise as a Fraction."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return q if r == 0 else Fraction(num, den)


def _numerators(values) -> tuple[list[int], int]:
    """int/Fraction values as integer numerators over their lcm: (nums, den)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class QuadExt:
    """Element x + y·s of Q[s]/(s²−D) for a fixed nonzero integer D.

    Stored as integer numerators over one positive denominator,
    (X + Y·s)/den with gcd(X, Y, den) = 1, so arithmetic works on ints and
    reduces once per operation.  ``x`` and ``y`` are the rational
    components (an ``int`` when integral), each given as an ``int`` or a
    ``Fraction``, and D is an integer; nothing else is converted.  Values
    are immutable.  Arithmetic between elements with different D is
    rejected; plain integers and rationals coerce to (k, 0).  Equality is
    component-wise on (x, y, D).
    """

    __slots__ = ("_x", "_y", "_den", "d")

    def __init__(self, x: int | Fraction, y: int | Fraction, d: int) -> None:
        d = index(d)
        if d == 0:
            raise ValueError("discriminant D must be nonzero")
        (num_x, num_y), den = _numerators((x, y))  # both reduced: gcd(X, Y, den) is 1
        _set_x(self, num_x)
        _set_y(self, num_y)
        _set_den(self, den)
        _set_d(self, d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadExt is immutable")

    @property
    def x(self) -> int | Fraction:
        return _rational(self._x, self._den)

    @property
    def y(self) -> int | Fraction:
        return _rational(self._y, self._den)

    def _check(self, other: QuadExt) -> int:
        """The shared discriminant; mixing two different D is an error."""
        if other.d != self.d:
            raise ValueError(f"mixed discriminants: s²={self.d} vs s²={other.d}")
        return self.d

    def __add__(self, other: QuadExt | int | Fraction) -> QuadExt:
        if isinstance(other, QuadExt):
            self._check(other)
            a, b = self._den, other._den
            if a == b:
                return _reduced(self._x + other._x, self._y + other._y, a, self.d)
            return _reduced(self._x * b + other._x * a, self._y * b + other._y * a, a * b, self.d)
        if isinstance(other, (int, Fraction)):
            a, b = self._den, other.denominator
            return _reduced(self._x * b + other.numerator * a, self._y * b, a * b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: QuadExt | int | Fraction) -> QuadExt:
        if isinstance(other, (QuadExt, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: int | Fraction) -> QuadExt:
        return (-self).__add__(other)

    def __neg__(self) -> QuadExt:
        return _raw(-self._x, -self._y, self._den, self.d)

    def __mul__(self, other: QuadExt | int | Fraction):
        if isinstance(other, QuadExt):
            d = self._check(other)
            x1, y1, x2, y2 = self._x, self._y, other._x, other._y
            return _reduced(x1 * x2 + d * y1 * y2, x1 * y2 + y1 * x2, self._den * other._den, d)
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return _reduced(self._x * num, self._y * num, self._den * other.denominator, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> QuadExt:
        base = self if exponent >= 0 else self.inverse()
        n = abs(exponent)
        d = self.d
        # square-and-multiply on the integer numerators (Z[s] is closed
        # under products); the denominator is just den**n
        bx, by = base._x, base._y
        rx, ry = 1, 0
        while n:
            if n & 1:
                rx, ry = rx * bx + d * ry * by, rx * by + ry * bx
            n >>= 1
            if n:
                bx, by = bx * bx + d * by * by, 2 * bx * by
        return _reduced(rx, ry, base._den ** abs(exponent), d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadExt):
            return NotImplemented
        return (
            self._x == other._x
            and self._y == other._y
            and self._den == other._den
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.d))

    def __repr__(self) -> str:
        return f"QuadExt({self.x!r}, {self.y!r}, d={self.d})"

    def __str__(self) -> str:
        return f"{format_rational(self.x)} + {format_rational(self.y)}·s"

    def inverse(self) -> QuadExt:
        """Multiplicative inverse; requires the norm x² − D·y² to be nonzero."""
        # ((X + Y·s)/den)⁻¹ = den·(X − Y·s)/(X² − D·Y²)
        n = self._x * self._x - self.d * self._y * self._y
        if n == 0:
            raise ZeroDivisionError(f"{self!r} has zero norm and is not invertible")
        den = self._den if n > 0 else -self._den
        return _reduced(den * self._x, -den * self._y, abs(n), self.d)

    def rational_part(self) -> int | Fraction:
        """Project to the base field; the s-component must be zero."""
        if self._y != 0:
            raise IrrationalResidueError(f"irrational residue: {self!r}")
        return _rational(self._x, self._den)


_set_x = QuadExt._x.__set__
_set_y = QuadExt._y.__set__
_set_den = QuadExt._den.__set__
_set_d = QuadExt.d.__set__


def _raw(num_x: int, num_y: int, den: int, d: int) -> QuadExt:
    """Build (X + Y·s)/den as given: den > 0 and gcd(X, Y, den) = 1."""
    z = object.__new__(QuadExt)
    _set_x(z, num_x)
    _set_y(z, num_y)
    _set_den(z, den)
    _set_d(z, d)
    return z


def _reduced(num_x: int, num_y: int, den: int, d: int) -> QuadExt:
    """Build (X + Y·s)/den for den > 0, dividing out gcd(X, Y, den)."""
    if den != 1:
        g = gcd(num_x, num_y, den)
        if g != 1:
            num_x, num_y, den = num_x // g, num_y // g, den // g
    return _raw(num_x, num_y, den, d)


def roots(p: int, q: int) -> tuple[QuadExt, QuadExt]:
    """Both roots of t² − p·t − q = 0 as elements of Q[s]/(s² − p²−4q).

    Returns (α, β) = ((p+s)/2, (p−s)/2), so α+β = p, α·β = −q and
    α−β = s.  Requires q ≠ 0 and a nonzero discriminant (distinct roots).
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    disc = p * p + 4 * q
    if disc == 0:
        raise ValueError("repeated root: discriminant p²+4q is zero")
    return _reduced(p, 1, 2, disc), _reduced(p, -1, 2, disc)
