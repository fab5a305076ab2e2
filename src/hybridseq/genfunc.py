"""Formal power-series check of the sequence generating function.

The hybrid sequence has generating function (N₀ + N₁·t)/(1 − p·t − q·t²)
with numerator hybrids built from closed seed formulas.  The denominator
is expanded through the closed binomial sum

    u_r = Σ_{k=0..⌊r/2⌋} C(r−k, k) · p^{r−2k} · q^k,

not through the recurrence, so comparing series coefficients against the
recurrence-generated sequence is a genuinely independent check.
"""

from __future__ import annotations

from collections import namedtuple

from .hybrid import HybridNumber
from .sequences import HoradamParams, SeqCache


def binomial_series_coeff(p: int, q: int, r: int) -> int:
    """Coefficient of t^r in 1/(1 − p·t − q·t²); zero for r < 0.

    Steps the binomial sum from its k = 0 term p^r by the exact integer
    ratio C(r−k−1, k+1)/C(r−k, k) · q/p² = (r−2k)(r−2k−1)·q / ((k+1)(r−k)·p²),
    so u_r costs ⌊r/2⌋ small-integer products and quotients.  For p = 0
    only the k = r/2 term is nonzero.
    """
    if r < 0:
        return 0
    if p == 0:
        return 0 if r % 2 else q ** (r // 2)
    term = total = p**r
    p2 = p * p
    for k in range(r // 2):
        term = term * ((r - 2 * k) * (r - 2 * k - 1) * q) // ((k + 1) * (r - k) * p2)
        total += term
    return total


def numerator_hybrids(params: HoradamParams) -> tuple[HybridNumber, HybridNumber]:
    """The constant and linear numerator coefficients, from closed formulas.

    Deliberately not taken from the sequence module: a defect in either
    seed formula would surface as a mismatch at r = 0 or r = 1.
    """
    p, q, a, b = params.p, params.q, params.a, params.b
    constant = HybridNumber(a, b, p * b + q * a, (p * p + q) * b + p * q * a)
    linear = HybridNumber(b - p * a, q * a, q * b, p * q * b + q * q * a)
    return constant, linear


SeriesExpansion = namedtuple("SeriesExpansion", "params coeffs")


def expand(params: HoradamParams, terms: int) -> SeriesExpansion:
    """Series coefficients 0..terms of the generating function."""
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    constant, linear = numerator_hybrids(params)
    p, q = params.p, params.q
    coeffs = []
    prev = 0  # u_{r−1}; each u_r comes from the binomial sum, once
    for r in range(terms + 1):
        cur = binomial_series_coeff(p, q, r)
        coeffs.append(constant.scale(cur) + linear.scale(prev))
        prev = cur
    return SeriesExpansion(params, tuple(coeffs))


ExpansionReport = namedtuple("ExpansionReport", "ok matches first_mismatch expansion")


def check_expansion(params: HoradamParams, terms: int) -> ExpansionReport:
    """Compare every series coefficient against one recurrence window."""
    expansion = expand(params, terms)
    values = SeqCache(params).window(0, terms + 3)
    matches = tuple(coeff == tuple(values[r : r + 4]) for r, coeff in enumerate(expansion.coeffs))
    first_mismatch = next((r for r, ok in enumerate(matches) if not ok), None)
    return ExpansionReport(all(matches), matches, first_mismatch, expansion)
