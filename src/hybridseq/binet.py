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
constants of the product/square lemmas, whose four rational hybrids
(:func:`lemma_hybrids`) the identity right-hand sides read.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exactarith import QuadExt, _numerators, _rational, roots
from .hybrid import HybridNumber
from .sequences import HoradamParams, SeqCache, fib_params, lucas_params


class LemmaMismatchError(ArithmeticError):
    """A closed-form lemma disagreed with the direct product (a bug)."""


class BinetContext(namedtuple("BinetContext", (
    "params disc alpha beta alpha_hybrid beta_hybrid alpha_weight beta_weight "
    "weight_product cross_shift omega square_lucas_shift square_fib_shift fib0 lucas0"
))):
    """Immutable bundle of the closed-form constants for one parameter set.

    ``cross_shift`` is the scalar q³+pq−q+1 and ``omega`` the hybrid
    (1−p)·i − q·ε + (p²+q+1)·h; the products α̲·β̲ and β̲·α̲ equal
    (HL₀ − cross_shift) ± q·(α−β)·(HF₀ − omega).  ``square_lucas_shift``
    and ``square_fib_shift`` play the same role for α̲² and β̲²:
    α̲², β̲² = (HL₀ + square_lucas_shift) ± (α−β)·(HF₀ + square_fib_shift).
    """

    __slots__ = ()


def make_context(params: HoradamParams) -> BinetContext:
    """Populate every closed-form constant for the given parameters."""
    p, q, a, b = params
    alpha, beta = roots(p, q)
    alpha_hybrid = HybridNumber(QuadExt(1, 0, alpha.d), alpha, alpha**2, alpha**3)
    beta_hybrid = HybridNumber(QuadExt(1, 0, beta.d), beta, beta**2, beta**3)
    f = SeqCache(fib_params(p, q)).window(0, 6)
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
        weight_product=params.weight_product,
        cross_shift=q**3 + p * q - q + 1,
        omega=HybridNumber(0, 1 - p, -q, p * p + q + 1),
        square_lucas_shift=-1 + Fraction(p, 2) * fib_sum + q * (f[5] + 2 * f[2] - f[1]),
        square_fib_shift=Fraction(1, 2) * fib_sum,
        fib0=HybridNumber(*f[:4]),
        lucas0=HybridNumber(*SeqCache(lucas_params(p, q)).window(0, 3)),
    )


def lift(z: HybridNumber, d: int) -> HybridNumber:
    """Embed a rational-component hybrid into the extension ring."""
    return HybridNumber(*(QuadExt(c, 0, d) for c in z.parts()))


def binet_window(ctx: BinetContext, lo: int, hi: int) -> list[HybridNumber]:
    """[HJ_lo, …, HJ_hi] from one power of α and integer steps."""
    p, d = ctx.params.p, ctx.disc
    start = ctx.alpha_weight * ctx.alpha**lo
    (x, y), den = _numerators((start.x, start.y))
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


def lemma_hybrids(ctx: BinetContext) -> tuple[HybridNumber, ...]:
    """(HL₀ − cross_shift, HF₀ − omega, HL₀ + square_lucas_shift,
    HF₀ + square_fib_shift): the rational hybrids of the product and square
    lemmas, checked below and read by the identity right sides."""
    scalar = HybridNumber.from_scalar
    return (ctx.lucas0 - scalar(ctx.cross_shift), ctx.fib0 - ctx.omega,
            ctx.lucas0 + scalar(ctx.square_lucas_shift), ctx.fib0 + scalar(ctx.square_fib_shift))


def _checked(ctx: BinetContext, direct: HybridNumber, first: int, factor: int,
             label: str) -> HybridNumber:
    """``direct``, checked against base + factor·(α−β)·swing with (base, swing)
    the lemma hybrids from index ``first``."""
    base, swing = lemma_hybrids(ctx)[first : first + 2]
    closed = lift(base, ctx.disc) + lift(swing, ctx.disc).scale(QuadExt(0, factor, ctx.disc))
    if direct != closed:
        raise LemmaMismatchError(f"{label}: direct product {direct} != closed form {closed}")
    return direct


def product_alphabar_betabar(ctx: BinetContext) -> HybridNumber:
    """α̲·β̲, checked against (HL₀ − cross_shift) + q(α−β)(HF₀ − omega)."""
    return _checked(ctx, ctx.alpha_hybrid * ctx.beta_hybrid, 0, ctx.params.q, "α̲·β̲")


def product_betabar_alphabar(ctx: BinetContext) -> HybridNumber:
    """β̲·α̲, checked against (HL₀ − cross_shift) − q(α−β)(HF₀ − omega)."""
    return _checked(ctx, ctx.beta_hybrid * ctx.alpha_hybrid, 0, -ctx.params.q, "β̲·α̲")


def alphabar_squared(ctx: BinetContext) -> HybridNumber:
    """α̲², checked against (HL₀ + r) + (α−β)(HF₀ + s) with the context shifts."""
    return _checked(ctx, ctx.alpha_hybrid * ctx.alpha_hybrid, 2, +1, "α̲²")


def betabar_squared(ctx: BinetContext) -> HybridNumber:
    """β̲², checked against (HL₀ + r) − (α−β)(HF₀ + s) with the context shifts."""
    return _checked(ctx, ctx.beta_hybrid * ctx.beta_hybrid, 2, -1, "β̲²")
