"""Independent oracles shared by the test modules.

Nothing here reuses the library's arithmetic paths: the sequence oracle is
a plain recurrence loop and the multiplication oracle expands products
over a frozen literal copy of the unit table, so the tests genuinely
cross-check the package against independent computations.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

from hybridseq import HybridNumber, SeqCache, grid_param_sets
from hybridseq.identities import DEFAULT_GRID

# Frozen unit multiplication table, hand-derived from i²=−1, ε²=0, h²=1,
# i·h=−h·i=ε+i.  Keys are (row, col) in the order (1, i, e, h); values are
# component quadruples (s, i, e, h).
UNIT_TABLE = {
    ("1", "1"): (1, 0, 0, 0),
    ("1", "i"): (0, 1, 0, 0),
    ("1", "e"): (0, 0, 1, 0),
    ("1", "h"): (0, 0, 0, 1),
    ("i", "1"): (0, 1, 0, 0),
    ("i", "i"): (-1, 0, 0, 0),
    ("i", "e"): (1, 0, 0, -1),
    ("i", "h"): (0, 1, 1, 0),
    ("e", "1"): (0, 0, 1, 0),
    ("e", "i"): (1, 0, 0, 1),
    ("e", "e"): (0, 0, 0, 0),
    ("e", "h"): (0, 0, -1, 0),
    ("h", "1"): (0, 0, 0, 1),
    ("h", "i"): (0, -1, -1, 0),
    ("h", "e"): (0, 0, 1, 0),
    ("h", "h"): (1, 0, 0, 0),
}

UNIT_KEYS = ("1", "i", "e", "h")


def table_mul(z: HybridNumber, w: HybridNumber) -> HybridNumber:
    """Brute-force bilinear product over the 16 frozen unit products."""
    acc = [0, 0, 0, 0]
    for k1, c1 in zip(UNIT_KEYS, z.parts()):
        for k2, c2 in zip(UNIT_KEYS, w.parts()):
            unit = UNIT_TABLE[(k1, k2)]
            coeff = c1 * c2
            for idx in range(4):
                acc[idx] = acc[idx] + coeff * unit[idx]
    return HybridNumber(*acc)


def seq_oracle(p: int, q: int, a: int, b: int, n: int) -> Fraction:
    """Two-sided recurrence loop, independent of the sequences module."""
    lo, hi = Fraction(a), Fraction(b)
    if n >= 0:
        for _ in range(n):
            lo, hi = hi, p * hi + q * lo
        return lo
    for _ in range(-n):
        lo, hi = (hi - p * lo) / q, lo
    return lo


def binomial_oracle(p: int, q: int, r: int) -> int:
    """u_r = Σ C(r−k, k)·p^{r−2k}·q^k term by term, with math.comb."""
    if r < 0:
        return 0
    return sum(comb(r - k, k) * p ** (r - 2 * k) * q**k for k in range(r // 2 + 1))


# every (p, q) with p ∈ [−4, 4], q ∈ {±1, ±2, ±3} and p²+4q ≠ 0
SMALL_PQ = [(p, q) for p in range(-4, 5) for q in (-3, -2, -1, 1, 2, 3) if p * p + 4 * q != 0]


def hybrid_oracle(p: int, q: int, a: int, b: int, n: int) -> HybridNumber:
    return HybridNumber(*(seq_oracle(p, q, a, b, n + k) for k in range(4)))


def fib_oracle(p: int, q: int, n: int) -> Fraction:
    return seq_oracle(p, q, 0, 1, n)


def lucas_oracle(p: int, q: int, n: int) -> Fraction:
    return seq_oracle(p, q, 2, p, n)


class FracQuad:
    """Reference x + y·s in Q[s]/(s²−d) with plain Fraction components."""

    def __init__(self, x, y, d: int) -> None:
        self.x, self.y, self.d = Fraction(x), Fraction(y), d

    def __add__(self, other: FracQuad) -> FracQuad:
        return FracQuad(self.x + other.x, self.y + other.y, self.d)

    def __sub__(self, other: FracQuad) -> FracQuad:
        return FracQuad(self.x - other.x, self.y - other.y, self.d)

    def __mul__(self, other: FracQuad) -> FracQuad:
        return FracQuad(
            self.x * other.x + self.d * self.y * other.y,
            self.x * other.y + self.y * other.x,
            self.d,
        )

    def norm(self) -> Fraction:
        return self.x * self.x - self.d * self.y * self.y

    def inverse(self) -> FracQuad:
        n = self.norm()
        return FracQuad(self.x / n, -self.y / n, self.d)

    def __pow__(self, exponent: int) -> FracQuad:
        base = self if exponent >= 0 else self.inverse()
        result = FracQuad(1, 0, self.d)
        for _ in range(abs(exponent)):
            result = result * base
        return result


GRID_PARAMS = grid_param_sets(DEFAULT_GRID)
GRID_PQ = sorted({(params.p, params.q) for params in GRID_PARAMS})


def rand_fraction(rng, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_hybrid(rng, span: int = 9) -> HybridNumber:
    return HybridNumber(*(rand_fraction(rng, span) for _ in range(4)))


def count_seqcache_reads(monkeypatch) -> Counter:
    """Count SeqCache.window calls by ("window", parameters)."""
    reads: Counter = Counter()
    window = SeqCache.window

    def counted(self, *args):
        reads["window", self.params] += 1
        return window(self, *args)

    monkeypatch.setattr(SeqCache, "window", counted)
    return reads
