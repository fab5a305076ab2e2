"""Tests for the closed-form evaluator and its product/square lemmas."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hybridseq import (
    HoradamParams,
    HybridNumber,
    QuadExt,
    SeqCache,
    alphabar_squared,
    betabar_squared,
    binet_fib,
    binet_horadam,
    binet_lucas,
    fib_params,
    hybrid_seq,
    make_context,
    product_alphabar_betabar,
    product_betabar_alphabar,
)
from hybridseq.binet import binet_window, lift

from helpers import GRID_PARAMS, GRID_PQ, hybrid_oracle


class TestContextConstants:
    def test_classical_scalars(self):
        ctx = make_context(fib_params(1, 1))
        assert ctx.cross_shift == 2
        assert ctx.omega == HybridNumber(Fraction(0), Fraction(0), Fraction(-1), Fraction(3))
        assert ctx.square_lucas_shift == Fraction(21, 2)
        assert ctx.square_fib_shift == Fraction(11, 2)

    def test_weight_products(self):
        assert make_context(fib_params(1, 1)).weight_product == 1
        assert make_context(HoradamParams(1, 1, 1, 1)).weight_product == -1
        assert make_context(HoradamParams(1, 1, 2, 1)).weight_product == -5

    def test_weight_product_matches_quadext_product(self):
        for params in GRID_PARAMS:
            ctx = make_context(params)
            product = ctx.alpha_weight * ctx.beta_weight
            assert product.rational_part() == ctx.weight_product

    def test_root_relations(self):
        for params in GRID_PARAMS:
            ctx = make_context(params)
            assert (ctx.alpha + ctx.beta).rational_part() == params.p
            assert (ctx.alpha * ctx.beta).rational_part() == -params.q
            assert ctx.alpha - ctx.beta == QuadExt(0, 1, ctx.disc)

    def test_companion_hybrid_components(self):
        ctx = make_context(fib_params(2, 1))
        assert ctx.alpha_hybrid.parts() == (
            QuadExt(1, 0, 8),
            ctx.alpha,
            ctx.alpha**2,
            ctx.alpha**3,
        )

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
            assert window == [SeqCache(params).hybrid(n) for n in range(-30, 61)], params

    def test_fib_specialization(self):
        ctx = make_context(fib_params(1, 1))
        assert binet_fib(ctx, 1) == HybridNumber(1, 1, 2, 3)

    def test_lucas_specialization(self):
        ctx = make_context(fib_params(1, 1))
        assert binet_lucas(ctx, 0) == HybridNumber(2, 1, 3, 4)

    def test_pell_block(self):
        ctx = make_context(fib_params(2, 1))
        assert binet_fib(ctx, 2) == HybridNumber(2, 5, 12, 29)

    def test_division_free_lucas_path(self):
        for p, q in GRID_PQ:
            ctx = make_context(fib_params(p, q))
            for n in range(-4, 12):
                assert binet_lucas(ctx, n) == hybrid_seq(ctx.params, "lucas", n)
                assert binet_fib(ctx, n) == hybrid_seq(ctx.params, "fib", n)


class TestProductLemmas:
    def test_spot_value(self):
        ctx = make_context(fib_params(1, 1))
        assert product_alphabar_betabar(ctx) == HybridNumber(
            QuadExt(0, 0, 5), QuadExt(1, 1, 5), QuadExt(3, 2, 5), QuadExt(4, -1, 5)
        )

    def test_sum_identity(self):
        # α̲β̲ + β̲α̲ = 2(HL₀ − cross_shift), rational after projection
        for params in GRID_PARAMS:
            ctx = make_context(params)
            total = product_alphabar_betabar(ctx) + product_betabar_alphabar(ctx)
            expected = (
                ctx.lucas0 - HybridNumber.from_scalar(Fraction(ctx.cross_shift))
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
        for params in GRID_PARAMS[:8]:
            ctx = make_context(params)
            mirrored = HybridNumber(*(c.conjugate() for c in alphabar_squared(ctx).parts()))
            assert betabar_squared(ctx) == mirrored

    def test_closed_forms_hold_on_grid(self):
        for params in GRID_PARAMS:
            ctx = make_context(params)
            alphabar_squared(ctx)
            betabar_squared(ctx)


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
                alpha_rhs = ctx.alpha_hybrid.scale(
                    ctx.alpha**n * (ctx.alpha * params.b + q * params.a)
                )
                assert alpha_comb == alpha_rhs, (params, n)
                beta_comb = above.scale(ctx.beta) + here.scale(QuadExt(q, 0, d))
                beta_rhs = ctx.beta_hybrid.scale(
                    ctx.beta**n * (ctx.beta * params.b + q * params.a)
                )
                assert beta_comb == beta_rhs, (params, n)
