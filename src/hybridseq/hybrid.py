"""The non-commutative hybrid number ring.

A hybrid number is a + b·i + c·ε + d·h where the units satisfy

    i² = −1,   ε² = 0,   h² = 1,   i·h = −h·i = ε + i.

The full unit multiplication table follows from these relations (for
example i·ε = 1 − h and ε·i = 1 + h, so the ring is not commutative).
Components may live in any commutative coefficient ring: plain integers,
:class:`fractions.Fraction`, or :class:`~hybridseq.exactarith.QuadExt`.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .exactarith import format_rational


class HybridNumber(namedtuple("HybridNumber", "s i e h")):
    """Quadruple (s, i, e, h): scalar part and the i/ε/h coefficients."""

    __slots__ = ()

    @classmethod
    def from_scalar(cls, value) -> HybridNumber:
        zero = value - value
        return cls(value, zero, zero, zero)

    def parts(self) -> tuple:
        return (self.s, self.i, self.e, self.h)

    def __add__(self, other: HybridNumber) -> HybridNumber:
        return HybridNumber(
            self.s + other.s, self.i + other.i, self.e + other.e, self.h + other.h
        )

    def __sub__(self, other: HybridNumber) -> HybridNumber:
        return HybridNumber(
            self.s - other.s, self.i - other.i, self.e - other.e, self.h - other.h
        )

    def __neg__(self) -> HybridNumber:
        return HybridNumber(-self.s, -self.i, -self.e, -self.h)

    def scale(self, k) -> HybridNumber:
        """Multiply every component by a coefficient-ring scalar."""
        return HybridNumber(k * self.s, k * self.i, k * self.e, k * self.h)

    def __mul__(self, other):
        if not isinstance(other, HybridNumber):
            return self.scale(other)
        a1, b1, c1, d1 = self.s, self.i, self.e, self.h
        a2, b2, c2, d2 = other.s, other.i, other.e, other.h
        # bilinear extension of the unit table; b1d2 − d1b2 feeds both
        # the i and ε components (from i·h = ε+i, h·i = −ε−i)
        cross = b1 * d2 - d1 * b2
        return HybridNumber(
            a1 * a2 - b1 * b2 + b1 * c2 + c1 * b2 + d1 * d2,
            a1 * b2 + b1 * a2 + cross,
            a1 * c2 + c1 * a2 + cross - c1 * d2 + d1 * c2,
            a1 * d2 + d1 * a2 - b1 * c2 + c1 * b2,
        )

    def __rmul__(self, other):
        # coefficient scalars commute with the hybrid units
        return self.scale(other)

    def conjugate(self) -> HybridNumber:
        """(a, −b, −c, −d); an anti-automorphism of the product."""
        return HybridNumber(self.s, -self.i, -self.e, -self.h)

    def character(self):
        """The scalar a² + (b−c)² − c² − d², equal to z·conjugate(z)."""
        bc = self.i - self.e
        return self.s * self.s + bc * bc - self.e * self.e - self.h * self.h

    def norm(self) -> HybridNorm:
        """√|character| as a float plus the sign class of the character.

        The character can be negative, so the exact quantity of record is
        :meth:`character`; the norm keeps the magnitude and the sign class
        separately instead of producing a non-real square root.  A nonzero
        magnitude past or below the float range raises :class:`OverflowError`.
        """
        c = self.character()
        if c > 0:
            sign_class = "positive"
        elif c == 0:
            sign_class = "null"
        else:
            sign_class = "negative"
        size = abs(c)
        try:
            if not size or 2**-1022 <= size < 2**1023:
                magnitude = math.sqrt(size)
            else:  # ⌊√(size·4ᵏ)⌋/2ᵏ: k = 0 past 2**1023, a root of 100+ bits below 2**-1022
                num, den = size.numerator, size.denominator
                # 2**(excess−1) ≤ size < 2**(excess+1), known before any root is taken
                excess = num.bit_length() - den.bit_length()
                if excess > 2048:  # size ≥ 2**2048: the root is past every float
                    raise OverflowError
                k = max(0, (202 - excess) // 2)
                # size < 2**-2150: the root is below half the least float and rounds to 0
                magnitude = 0.0 if excess < -2150 else math.isqrt(num * 4**k // den) / 2**k
        except OverflowError:
            raise OverflowError("the norm magnitude √|character| is out of float range") from None
        if size and not magnitude:
            raise OverflowError("the norm magnitude √|character| is below float range")
        return HybridNorm(magnitude, sign_class)

    def to_json_dict(self) -> dict:
        return {
            "s": format_rational(self.s),
            "i": format_rational(self.i),
            "e": format_rational(self.e),
            "h": format_rational(self.h),
        }


HybridNorm = namedtuple("HybridNorm", "value sign_class")


ONE = HybridNumber(1, 0, 0, 0)
UNIT_I = HybridNumber(0, 1, 0, 0)
UNIT_E = HybridNumber(0, 0, 1, 0)
UNIT_H = HybridNumber(0, 0, 0, 1)

BASIS = (ONE, UNIT_I, UNIT_E, UNIT_H)
BASIS_LABELS = ("1", "i", "ε", "h")


def basis_table() -> list[list[HybridNumber]]:
    """All 16 unit products, rows and columns ordered (1, i, ε, h)."""
    return [[row * col for col in BASIS] for row in BASIS]


def format_basis_product(z: HybridNumber) -> str:
    """Compact cell text for a unit product, e.g. "1-h", "-(ε+i)", "0".

    Term order (1, ε, i, h) matches the conventional typeset table.
    """
    terms = [(z.s, "1"), (z.e, "ε"), (z.i, "i"), (z.h, "h")]
    nonzero = [(c, sym) for c, sym in terms if c != 0]
    if not nonzero:
        return "0"
    if len(nonzero) > 1 and all(c < 0 for c, _ in nonzero):
        return "-(" + "+".join(sym for _, sym in nonzero) + ")"
    out = []
    for k, (c, sym) in enumerate(nonzero):
        if c < 0:
            out.append("-")
        elif k:
            out.append("+")
        out.append(sym)
    return "".join(out)
