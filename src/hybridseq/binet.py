"""Closed-form (Binet) evaluation of the hybrid sequences.

With α, β the roots of t² − p·t − q = 0 (as elements of Q[s]/(s²−D),
D = p²+4q) and the companion hybrids α̲ = 1 + α·i + α²·ε + α³·h and β̲
likewise, the generalized hybrid sequence has the closed form

    HJ_n = (A·α̲·α^n − B·β̲·β^n) / (α − β),   A = b − a·β,  B = b − a·α.

Component k of HJ_n is J_m with m = n + k.  B, β and β^m are the s ↦ −s
conjugates of A, α and α^m, so if A·α^m = x + y·s, then J_m = 2·y·s/s = 2·y,
rational by construction.  :func:`binet_window` reaches A·α^lo = (X + Y·s)/den
by one power, then multiplies by α = (p + s)/2 on integers:
(X, Y, den) → (p·X + D·Y, X + p·Y, 2·den), halving all three when X and Y
are even.  den grows only at a step where X or Y is odd, where its power
of 2 is the least one of A·αⁿ, bounded because α is an algebraic integer.
So den stays bounded, and a step costs what the size of its values does,
not what the walk's length does.  The product and square lemmas multiply
α̲ and β̲ in Q[s] and check the products against the four rational hybrids
of :func:`~hybridseq.sequences.lemma_hybrids`, the ones the identity
right-hand sides read.
"""

from __future__ import annotations

from collections import namedtuple

from .exactarith import QuadExt, _numerators, _rational, roots
from .hybrid import HybridNumber
from .sequences import HoradamParams, lemma_hybrids


class LemmaMismatchError(ArithmeticError):
    """A closed-form lemma disagreed with the direct product (a bug)."""


class BinetContext(namedtuple("BinetContext", "params disc alpha beta alpha_weight beta_weight")):
    """The closed form of one parameter set: D = p²+4q, the roots α and β,
    and the weights A = b − a·β and B = b − a·α."""

    __slots__ = ()


def make_context(params: HoradamParams) -> BinetContext:
    """The roots and the weights of the closed form for the given parameters."""
    p, q, a, b = params
    alpha, beta = roots(p, q)
    return BinetContext(params, params.discriminant, alpha, beta, b - beta * a, b - alpha * a)


def companion_hybrid(root: QuadExt) -> HybridNumber:
    """α̲ = 1 + α·i + α²·ε + α³·h for the root α, and β̲ likewise."""
    return HybridNumber(QuadExt(1, 0, root.d), root, root**2, root**3)


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
        if not (x | y) & 1:  # den is even here
            x, y, den = x >> 1, y >> 1, den >> 1
    return [HybridNumber(*values[k : k + 4]) for k in range(hi - lo + 1)]


def binet_horadam(ctx: BinetContext, n: int) -> HybridNumber:
    """Closed-form HJ_n; exactly equals the recurrence path for every n."""
    return binet_window(ctx, n, n)[0]


def _checked(ctx: BinetContext, x: QuadExt, y: QuadExt, first: int, factor: int,
             label: str) -> HybridNumber:
    """The direct product x̲·y̲ of two companion hybrids, checked against
    base + factor·(α−β)·swing with (base, swing) the lemma hybrids of (p, q)
    from index ``first``."""
    direct = companion_hybrid(x) * companion_hybrid(y)
    base, swing = lemma_hybrids(ctx.params.p, ctx.params.q)[first : first + 2]
    closed = lift(base, ctx.disc) + lift(swing, ctx.disc).scale(QuadExt(0, factor, ctx.disc))
    if direct != closed:
        raise LemmaMismatchError(f"{label}: direct product {direct} != closed form {closed}")
    return direct


def product_alphabar_betabar(ctx: BinetContext) -> HybridNumber:
    """α̲·β̲, checked against (HL₀ − cross_shift) + q(α−β)(HF₀ − omega)."""
    return _checked(ctx, ctx.alpha, ctx.beta, 0, ctx.params.q, "α̲·β̲")


def product_betabar_alphabar(ctx: BinetContext) -> HybridNumber:
    """β̲·α̲, checked against (HL₀ − cross_shift) − q(α−β)(HF₀ − omega)."""
    return _checked(ctx, ctx.beta, ctx.alpha, 0, -ctx.params.q, "β̲·α̲")


def alphabar_squared(ctx: BinetContext) -> HybridNumber:
    """α̲², checked against (HL₀ + r) + (α−β)(HF₀ + s) with the square shifts r and s."""
    return _checked(ctx, ctx.alpha, ctx.alpha, 2, +1, "α̲²")


def betabar_squared(ctx: BinetContext) -> HybridNumber:
    """β̲², checked against (HL₀ + r) − (α−β)(HF₀ + s) with the square shifts r and s."""
    return _checked(ctx, ctx.beta, ctx.beta, 2, -1, "β̲²")
