"""Formal power-series check of the sequence generating function.

The hybrid sequence has generating function (N₀ + N₁·t)/(1 − p·t − q·t²)
with numerator hybrids built from closed seed formulas.  The denominator
is expanded through the closed binomial sum

    u_r = Σ_{k=0..⌊r/2⌋} C(r−k, k) · p^{r−2k} · q^k,

not through the recurrence, so comparing series coefficients against the
recurrence-generated sequence is a genuinely independent check.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .hybrid import HybridNumber
from .sequences import HoradamParams, SeqCache


def binomial_series_coeff(p: int, q: int, r: int) -> int:
    """Coefficient of t^r in 1/(1 − p·t − q·t²); zero for r < 0."""
    if r < 0:
        return 0
    return sum(comb(r - k, k) * p ** (r - 2 * k) * q**k for k in range(r // 2 + 1))


def numerator_hybrids(params: HoradamParams) -> tuple[HybridNumber, HybridNumber]:
    """The constant and linear numerator coefficients, from closed formulas.

    Deliberately not taken from the sequence module: a defect in either
    seed formula would surface as a mismatch at r = 0 or r = 1.
    """
    p, q, a, b = params.p, params.q, params.a, params.b
    constant = HybridNumber(a, b, p * b + q * a, (p * p + q) * b + p * q * a)
    linear = HybridNumber(b - p * a, q * a, q * b, p * q * b + q * q * a)
    return constant, linear


class SeriesExpansion(NamedTuple):
    params: HoradamParams
    coeffs: tuple[HybridNumber, ...]


def expand(params: HoradamParams, terms: int) -> SeriesExpansion:
    """Series coefficients 0..terms of the generating function."""
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    constant, linear = numerator_hybrids(params)
    p, q = params.p, params.q
    coeffs = tuple(
        constant.scale(binomial_series_coeff(p, q, r))
        + linear.scale(binomial_series_coeff(p, q, r - 1))
        for r in range(terms + 1)
    )
    return SeriesExpansion(params, coeffs)


class ExpansionReport(NamedTuple):
    ok: bool
    matches: tuple[bool, ...]
    first_mismatch: int | None
    expansion: SeriesExpansion


def check_expansion(params: HoradamParams, terms: int) -> ExpansionReport:
    """Compare every series coefficient against one recurrence window."""
    expansion = expand(params, terms)
    window = SeqCache(params)
    matches = tuple(coeff == window.hybrid(r) for r, coeff in enumerate(expansion.coeffs))
    first_mismatch = next((r for r, ok in enumerate(matches) if not ok), None)
    return ExpansionReport(all(matches), matches, first_mismatch, expansion)
