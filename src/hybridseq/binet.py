"""Closed-form (Binet) evaluation of the hybrid sequences.

With α, β the roots of t² − p·t − q = 0 (as elements of Q[s]/(s²−D),
D = p²+4q) and the companion hybrids α̲ = 1 + α·i + α²·ε + α³·h and β̲
likewise, the generalized hybrid sequence has the closed form

    HJ_n = (A·α̲·α^n − B·β̲·β^n) / (α − β),   A = b − a·β,  B = b − a·α.

Component k of HJ_n is J_m with m = n + k.  B, β and β^m are the s ↦ −s
conjugates of A, α and α^m, so if A·α^m = x + y·s, then J_m = 2·y·s/s = 2·y,
rational by construction.  :func:`binet_window` reaches A·α^lo = (X + Y·s)/den
by one power, then multiplies by α = (p + s)/2 on integers:
(X, Y, den) → (p·X + D·Y, X + p·Y, 2·den).  The context also carries the
constants of the product/square lemmas and of the identity right-hand sides.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactarith import QuadExt, _rational, roots
from .hybrid import HybridNumber
from .sequences import HoradamParams, fib, hybrid_seq


class LemmaMismatchError(ArithmeticError):
    """A closed-form lemma disagreed with the direct product (a bug)."""


class BinetContext(NamedTuple):
    """Immutable bundle of the closed-form constants for one parameter set.

    ``cross_shift`` is the scalar q³+pq−q+1 and ``omega`` the hybrid
    (1−p)·i − q·ε + (p²+q+1)·h; the products α̲·β̲ and β̲·α̲ equal
    (HL₀ − cross_shift) ± q·(α−β)·(HF₀ − omega).  ``square_lucas_shift``
    and ``square_fib_shift`` play the same role for α̲² and β̲²:
    α̲², β̲² = (HL₀ + square_lucas_shift) ± (α−β)·(HF₀ + square_fib_shift).
    """

    params: HoradamParams
    disc: int
    alpha: QuadExt
    beta: QuadExt
    alpha_hybrid: HybridNumber
    beta_hybrid: HybridNumber
    alpha_weight: QuadExt
    beta_weight: QuadExt
    weight_product: int
    cross_shift: int
    omega: HybridNumber
    square_lucas_shift: Fraction
    square_fib_shift: Fraction
    fib0: HybridNumber
    lucas0: HybridNumber


def make_context(params: HoradamParams) -> BinetContext:
    """Populate every closed-form constant for the given parameters."""
    p, q, a, b = params.p, params.q, params.a, params.b
    alpha, beta = roots(p, q)
    alpha_hybrid = HybridNumber(QuadExt(1, 0, alpha.d), alpha, alpha**2, alpha**3)
    beta_hybrid = HybridNumber(QuadExt(1, 0, beta.d), beta, beta**2, beta**3)
    f = [fib(p, q, n) for n in range(7)]
    fib_sum = f[6] + 2 * f[3] - f[2]
    return BinetContext(
        params=params,
        disc=params.discriminant,
        alpha=alpha,
        beta=beta,
        alpha_hybrid=alpha_hybrid,
        beta_hybrid=beta_hybrid,
        alpha_weight=b - beta * a,
        beta_weight=b - alpha * a,
        weight_product=b * b - p * a * b - q * a * a,
        cross_shift=q**3 + p * q - q + 1,
        omega=HybridNumber(0, 1 - p, -q, p * p + q + 1),
        square_lucas_shift=-1 + Fraction(p, 2) * fib_sum + q * (f[5] + 2 * f[2] - f[1]),
        square_fib_shift=Fraction(1, 2) * fib_sum,
        fib0=hybrid_seq(params, "fib", 0),
        lucas0=hybrid_seq(params, "lucas", 0),
    )


def lift(z: HybridNumber, d: int) -> HybridNumber:
    """Embed a rational-component hybrid into the extension ring."""
    return HybridNumber(*(QuadExt(c, 0, d) for c in z.parts()))


def binet_window(ctx: BinetContext, lo: int, hi: int) -> list[HybridNumber]:
    """[HJ_lo, …, HJ_hi] from one power of α and integer steps."""
    p, d = ctx.params.p, ctx.disc
    start = ctx.alpha_weight * ctx.alpha**lo
    x, y, den = start._x, start._y, start._den
    values = []
    for _ in range(hi - lo + 4):
        values.append(_rational(2 * y, den))
        x, y, den = p * x + d * y, x + p * y, 2 * den
    return [HybridNumber(*values[k : k + 4]) for k in range(hi - lo + 1)]


def binet_horadam(ctx: BinetContext, n: int) -> HybridNumber:
    """Closed-form HJ_n; exactly equals the recurrence path for every n."""
    return binet_window(ctx, n, n)[0]


def binet_fib(ctx: BinetContext, n: int) -> HybridNumber:
    """Closed-form HF_n: the walk with weight A = 1 (seeds 0, 1)."""
    return binet_horadam(ctx._replace(alpha_weight=QuadExt(1, 0, ctx.disc)), n)


def binet_lucas(ctx: BinetContext, n: int) -> HybridNumber:
    """Closed-form HL_n: the walk with weight A = s (seeds 2, p)."""
    return binet_horadam(ctx._replace(alpha_weight=QuadExt(0, 1, ctx.disc)), n)


def _checked(direct: HybridNumber, closed: HybridNumber, label: str) -> HybridNumber:
    if direct != closed:
        raise LemmaMismatchError(f"{label}: direct product {direct} != closed form {closed}")
    return direct


def _cross_closed(ctx: BinetContext, sign: int) -> HybridNumber:
    base = lift(ctx.lucas0 - HybridNumber.from_scalar(ctx.cross_shift), ctx.disc)
    swing = lift(ctx.fib0 - ctx.omega, ctx.disc)
    factor = QuadExt(0, sign * ctx.params.q, ctx.disc)  # ±q·(α−β)
    return base + swing.scale(factor)


def product_alphabar_betabar(ctx: BinetContext) -> HybridNumber:
    """α̲·β̲, checked against (HL₀ − cross_shift) + q(α−β)(HF₀ − omega)."""
    direct = ctx.alpha_hybrid * ctx.beta_hybrid
    return _checked(direct, _cross_closed(ctx, +1), "α̲·β̲")


def product_betabar_alphabar(ctx: BinetContext) -> HybridNumber:
    """β̲·α̲, checked against (HL₀ − cross_shift) − q(α−β)(HF₀ − omega)."""
    direct = ctx.beta_hybrid * ctx.alpha_hybrid
    return _checked(direct, _cross_closed(ctx, -1), "β̲·α̲")


def _square_closed(ctx: BinetContext, sign: int) -> HybridNumber:
    base = lift(ctx.lucas0 + HybridNumber.from_scalar(ctx.square_lucas_shift), ctx.disc)
    swing = lift(ctx.fib0 + HybridNumber.from_scalar(ctx.square_fib_shift), ctx.disc)
    return base + swing.scale(QuadExt(0, sign, ctx.disc))


def alphabar_squared(ctx: BinetContext) -> HybridNumber:
    """α̲², checked against (HL₀ + r) + (α−β)(HF₀ + s) with the context shifts."""
    direct = ctx.alpha_hybrid * ctx.alpha_hybrid
    return _checked(direct, _square_closed(ctx, +1), "α̲²")


def betabar_squared(ctx: BinetContext) -> HybridNumber:
    """β̲², checked against (HL₀ + r) − (α−β)(HF₀ + s) with the context shifts."""
    direct = ctx.beta_hybrid * ctx.beta_hybrid
    return _checked(direct, _square_closed(ctx, -1), "β̲²")

