"""Tests for the closed-form evaluator and its product/square lemmas."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from hybridseq import (
    BinetContext,
    HoradamParams,
    HybridNumber,
    QuadExt,
    SeqCache,
    alphabar_squared,
    betabar_squared,
    binet_horadam,
    fib_params,
    hybrid_seq,
    lucas_params,
    make_context,
    product_alphabar_betabar,
    product_betabar_alphabar,
)
from hybridseq import binet, sequences
from hybridseq.binet import binet_window, companion_hybrid, lift
from hybridseq.sequences import lemma_hybrids

from helpers import GRID_PARAMS, GRID_PQ, fib_oracle, hybrid_oracle


class TestContextConstants:
    def test_context_holds_only_the_closed_form(self):
        assert BinetContext._fields == (
            "params", "disc", "alpha", "beta", "alpha_weight", "beta_weight")

    def test_classical_lemma_hybrids(self):
        # HL₀ − cross_shift, HF₀ − omega, HL₀ + square_lucas_shift,
        # HF₀ + square_fib_shift with cross_shift 2, omega −ε + 3h,
        # square_lucas_shift 21/2 and square_fib_shift 11/2
        lucas0, fib0 = HybridNumber(2, 1, 3, 4), HybridNumber(0, 1, 1, 2)
        scalar = HybridNumber.from_scalar
        assert lemma_hybrids(1, 1) == (
            lucas0 - scalar(2),
            fib0 - HybridNumber(Fraction(0), Fraction(0), Fraction(-1), Fraction(3)),
            lucas0 + scalar(Fraction(21, 2)),
            fib0 + scalar(Fraction(11, 2)),
        )

    def test_lemma_hybrids_match_their_formulas_on_grid(self):
        for p, q in (*GRID_PQ, (2, -3)):
            f = [fib_oracle(p, q, k) for k in range(7)]
            lucas0, fib0 = hybrid_oracle(p, q, 2, p, 0), hybrid_oracle(p, q, 0, 1, 0)
            square_fib_shift = Fraction(f[6] + 2 * f[3] - f[2], 2)
            square_lucas_shift = p * square_fib_shift - 1 + q * (f[5] + 2 * f[2] - f[1])
            scalar = HybridNumber.from_scalar
            assert lemma_hybrids(p, q) == (
                lucas0 - scalar(q**3 + p * q - q + 1),
                fib0 - HybridNumber(0, 1 - p, -q, p * p + q + 1),
                lucas0 + scalar(square_lucas_shift),
                fib0 + scalar(square_fib_shift),
            ), (p, q)

    def test_lemma_hybrids_from_two_windows_without_a_seek(self, monkeypatch):
        expected = lemma_hybrids(2, -3)

        def refused(*args):
            raise AssertionError("lemma_hybrids seeks or builds a hybrid_seq cache")

        for module in (sequences, binet):  # every name the functions are bound to
            for name, value in list(vars(module).items()):
                if value is sequences.horadam or value is sequences.hybrid_seq:
                    monkeypatch.setattr(module, name, refused)
        built = []
        init = SeqCache.__init__
        monkeypatch.setattr(SeqCache, "__init__",
                            lambda self, params: built.append(params) or init(self, params))
        assert lemma_hybrids(2, -3) == expected
        assert built == [fib_params(2, -3), lucas_params(2, -3)]

    def test_make_context_builds_no_window_and_takes_no_power(self, monkeypatch):
        built, powers = [], []
        init, power = SeqCache.__init__, QuadExt.__pow__
        monkeypatch.setattr(SeqCache, "__init__",
                            lambda self, params: built.append(params) or init(self, params))
        monkeypatch.setattr(QuadExt, "__pow__",
                            lambda self, exponent: powers.append(exponent) or power(self, exponent))
        for params in GRID_PARAMS:
            make_context(params)
        assert (built, powers) == ([], [])

    def test_weight_products(self):
        assert fib_params(1, 1).weight_product == 1
        assert HoradamParams(1, 1, 1, 1).weight_product == -1
        assert HoradamParams(1, 1, 2, 1).weight_product == -5

    def test_weight_product_matches_quadext_product(self):
        for params in GRID_PARAMS:
            ctx = make_context(params)
            product = ctx.alpha_weight * ctx.beta_weight
            assert product == QuadExt(params.weight_product, 0, ctx.disc)

    def test_root_relations(self):
        for params in GRID_PARAMS:
            ctx = make_context(params)
            assert (ctx.alpha + ctx.beta).rational_part() == params.p
            assert (ctx.alpha * ctx.beta).rational_part() == -params.q
            assert ctx.alpha - ctx.beta == QuadExt(0, 1, ctx.disc)

    def test_companion_hybrid_components(self):
        ctx = make_context(fib_params(2, 1))
        for root in (ctx.alpha, ctx.beta):
            assert companion_hybrid(root).parts() == (QuadExt(1, 0, 8), root, root**2, root**3)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            make_context(HoradamParams(2, -1, 0, 1))


class TestBinetValues:
    def test_fib_block(self):
        ctx = make_context(fib_params(1, 1))
        assert binet_horadam(ctx, 5) == HybridNumber(5, 8, 13, 21)

    def test_initial_value_general(self):
        for params in GRID_PARAMS:
            ctx = make_context(params)
            assert binet_horadam(ctx, 0) == hybrid_seq(params, "horadam", 0)

    def test_backward_value(self):
        ctx = make_context(fib_params(1, 1))
        expected = hybrid_oracle(1, 1, 0, 1, -1)
        assert expected == HybridNumber(1, 0, 1, 1)
        assert binet_horadam(ctx, -1) == expected

    def test_matches_recurrence_on_grid(self):
        for params in GRID_PARAMS:
            ctx = make_context(params)
            for n in range(-8, 41):
                assert binet_horadam(ctx, n) == hybrid_seq(params, "horadam", n), (params, n)

    def test_window_walk_matches_recurrence_window(self):
        for params in GRID_PARAMS:
            window = binet_window(make_context(params), -30, 60)
            assert window == [HybridNumber(*SeqCache(params).window(n, n + 3))
                              for n in range(-30, 61)], params

    def test_walk_keeps_its_denominator_bounded(self, monkeypatch):
        # p = 1, q = -1: α is a sixth root of unity and every value is small,
        # so a denominator doubled at every step would be all of the walk's growth
        dens, rational = [], binet._rational

        def recorded(num, den):
            dens.append(den)
            return rational(num, den)

        monkeypatch.setattr(binet, "_rational", recorded)
        window = binet_window(make_context(fib_params(1, -1)), 0, 20_000)
        assert len(dens) == 20_004
        assert max(den.bit_length() for den in dens) <= 3
        assert window[20_000] == window[20_000 % 6] == HybridNumber(1, 0, -1, -1)

    def test_fib_specialization(self):
        ctx = make_context(fib_params(1, 1))
        assert binet_horadam(ctx, 1) == HybridNumber(1, 1, 2, 3)

    def test_lucas_specialization(self):
        ctx = make_context(lucas_params(1, 1))
        assert binet_horadam(ctx, 0) == HybridNumber(2, 1, 3, 4)

    def test_pell_block(self):
        ctx = make_context(fib_params(2, 1))
        assert binet_horadam(ctx, 2) == HybridNumber(2, 5, 12, 29)

    def test_division_free_lucas_path(self):
        # the Lucas seeds (2, p) give the weight A = p − 2β = s, the Fibonacci seeds A = 1
        for p, q in GRID_PQ:
            lucas_ctx, fib_ctx = make_context(lucas_params(p, q)), make_context(fib_params(p, q))
            assert (lucas_ctx.alpha_weight, fib_ctx.alpha_weight) == (
                QuadExt(0, 1, lucas_ctx.disc), QuadExt(1, 0, fib_ctx.disc))
            for n in range(-4, 12):
                assert binet_horadam(lucas_ctx, n) == hybrid_seq(lucas_ctx.params, "lucas", n)
                assert binet_horadam(fib_ctx, n) == hybrid_seq(fib_ctx.params, "fib", n)


class TestProductLemmas:
    def test_spot_value(self):
        ctx = make_context(fib_params(1, 1))
        assert product_alphabar_betabar(ctx) == HybridNumber(
            QuadExt(0, 0, 5), QuadExt(1, 1, 5), QuadExt(3, 2, 5), QuadExt(4, -1, 5)
        )

    def test_sum_identity(self):
        # α̲β̲ + β̲α̲ = 2(HL₀ − cross_shift), cross_shift = q³+pq−q+1, rational
        for params in GRID_PARAMS:
            ctx = make_context(params)
            p, q = params.p, params.q
            alpha_bar, beta_bar = companion_hybrid(ctx.alpha), companion_hybrid(ctx.beta)
            total = alpha_bar * beta_bar + beta_bar * alpha_bar
            assert total == product_alphabar_betabar(ctx) + product_betabar_alphabar(ctx)
            expected = (
                hybrid_seq(params, "lucas", 0) - HybridNumber.from_scalar(q**3 + p * q - q + 1)
            ).scale(Fraction(2))
            assert total == lift(expected, ctx.disc)

    def test_classic_sum_spot(self):
        ctx = make_context(fib_params(1, 1))
        total = product_alphabar_betabar(ctx) + product_betabar_alphabar(ctx)
        assert total == lift(HybridNumber(*map(Fraction, (0, 2, 6, 8))), 5)

    def test_scalar_part_formula(self):
        # scalar part of α̲β̲ is L₀ − cross_shift; for p=2, q=1 that is −1
        ctx = make_context(fib_params(2, 1))
        assert product_alphabar_betabar(ctx).s == QuadExt(-1, 0, 8)

    def test_closed_forms_hold_on_grid(self):
        for params in GRID_PARAMS:
            ctx = make_context(params)
            product_alphabar_betabar(ctx)
            product_betabar_alphabar(ctx)


class TestSquareLemmas:
    def test_scalar_spot(self):
        ctx = make_context(fib_params(1, 1))
        assert alphabar_squared(ctx).s == QuadExt(Fraction(25, 2), Fraction(11, 2), 5)

    def test_i_component_spot(self):
        ctx = make_context(fib_params(1, 1))
        assert alphabar_squared(ctx).i == QuadExt(1, 1, 5)

    def test_beta_square_is_conjugate_mirror(self):
        # β̲² is α̲² under the s ↦ −s conjugation, component by component
        for params in GRID_PARAMS[:8]:
            ctx = make_context(params)
            mirrored = HybridNumber(*(QuadExt(c.x, -c.y, c.d) for c in alphabar_squared(ctx).parts()))
            assert betabar_squared(ctx) == mirrored

    def test_closed_forms_hold_on_grid(self):
        for params in GRID_PARAMS:
            ctx = make_context(params)
            alphabar_squared(ctx)
            betabar_squared(ctx)


# The lemma checks as polynomials in (p, q): every term has weight at most
# LEMMA_WEIGHT when p and s weigh 1 and q weighs 2 (see prove_lemmas), so each
# has degree at most LEMMA_WEIGHT in p and LEMMA_WEIGHT // 2 in q.
LEMMA_WEIGHT = 6
LEMMA_DEG_P, LEMMA_DEG_Q = LEMMA_WEIGHT, LEMMA_WEIGHT // 2
LEMMA_PROOF_GRID = tuple(product(range(LEMMA_DEG_P + 1), range(1, LEMMA_DEG_Q + 2)))
LEMMA_CHECKS = (product_alphabar_betabar, product_betabar_alphabar, alphabar_squared,
                betabar_squared)


def prove_lemmas() -> None:
    """Run the four lemma checks on p ∈ {0, …, 6} × q ∈ {1, …, 4}, which
    proves them for every (p, q) with q ≠ 0 and p² + 4q ≠ 0.

    Write D = p² + 4q.  A check compares, component by component, a product
    of the companion hybrids in Q[s]/(s² − D) with its closed form from
    ``lemma_hybrids(p, q)``.  Over Q[p, q], with α = (p + s)/2, β = (p − s)/2
    and s² reduced to p² + 4q, the difference is c₀ + c₁·s for polynomials
    c₀ and c₁ in p and q, and the check passes at (p, q) exactly when both
    vanish there (1 and s are a basis of the ring).

    Weight p and s by 1 and q by 2.  Then α and β weigh 1, a companion
    component α^k weighs k ≤ 3, and a product of two companions weighs at
    most 6.  On the closed-form side, HL₀ weighs at most 3, cross_shift's q³
    weighs 6, and q·s·(HF₀ − omega) at most 5.  The square shifts' p/2·F₆
    and q·F₅ weigh 6, and s·(HF₀ + square_fib_shift) weighs 6 as well.
    Reducing s² to p² + 4q keeps the weight.  So every monomial pⁱqʲ of c₀
    or c₁ has i + 2j ≤ 6: deg_p ≤ 6 and deg_q ≤ 3.

    By Alon's Lemma 2.1 (Combinatorial Nullstellensatz, Combin. Probab.
    Comput. 8, 1999), a polynomial of degree at most t_v in each variable v
    that vanishes on a product grid S_p × S_q with |S_v| > t_v is zero.
    The grid here has 7 values of p and 4 of q, so a pass on all of it makes
    c₀ and c₁ zero, and the lemmas hold wherever they are defined.  q ≥ 1
    keeps q ≠ 0 and D > 0 at every grid point, so every check there is
    defined.  A mismatch raises ``LemmaMismatchError``.
    """
    for p, q in LEMMA_PROOF_GRID:
        ctx = make_context(fib_params(p, q))
        for check in LEMMA_CHECKS:
            check(ctx)


def test_lemmas_hold_for_every_pq():
    prove_lemmas()


class TestRootScaledRecurrence:
    def test_combination_collapses_to_companion_hybrid(self):
        # α·HJ_{n+1} + q·HJ_n = α̲·α^n·(α·b + q·a), and the β twin
        for params in GRID_PARAMS:
            ctx = make_context(params)
            d = ctx.disc
            q = Fraction(params.q)
            for n in range(0, 11):
                here = lift(hybrid_seq(params, "horadam", n), d)
                above = lift(hybrid_seq(params, "horadam", n + 1), d)
                alpha_comb = above.scale(ctx.alpha) + here.scale(QuadExt(q, 0, d))
                alpha_rhs = companion_hybrid(ctx.alpha).scale(
                    ctx.alpha**n * (ctx.alpha * params.b + q * params.a)
                )
                assert alpha_comb == alpha_rhs, (params, n)
                beta_comb = above.scale(ctx.beta) + here.scale(QuadExt(q, 0, d))
                beta_rhs = companion_hybrid(ctx.beta).scale(
                    ctx.beta**n * (ctx.beta * params.b + q * params.a)
                )
                assert beta_comb == beta_rhs, (params, n)
