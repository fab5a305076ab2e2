"""Tests for rational wire formats and the quadratic extension ring."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridseq import (
    IrrationalResidueError,
    QuadExt,
    fib,
    format_rational,
    parse_rational,
    roots,
)

from helpers import GRID_PQ, FracQuad

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def quad(d: int):
    return st.builds(lambda x, y: QuadExt(x, y, d), rationals, rationals)


class TestRationalWireFormat:
    def test_integer_shorthand(self):
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(0) == "0"

    def test_fraction(self):
        assert format_rational(Fraction(-3, 2)) == "-3/2"

    def test_parse_accepts_both_forms(self):
        assert parse_rational("5") == 5
        assert parse_rational("5/1") == 5
        assert parse_rational("-3/2") == Fraction(-3, 2)

    def test_parse_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_rational("one half")

    @pytest.mark.parametrize("text", ["1_0", "1_000/3", "1/2_0", "1.0_5", "1e1_0", "1 / 2", "1/ 2",
                                      "- 1"])
    def test_parse_refuses_what_only_some_versions_read(self, text):
        # Fraction reads "_" separators from Python 3.11 on and blanks around
        # "/" from 3.12 on; the wire format is the same on every version
        with pytest.raises(ValueError, match="no '_' or blank may stand inside it"):
            parse_rational(text)

    def test_parse_names_a_zero_denominator(self):
        with pytest.raises(ValueError, match=r"invalid rational ' 3/0': zero denominator"):
            parse_rational(" 3/0")

    def test_parse_keeps_the_other_forms(self):
        assert [parse_rational(t) for t in (" -7/2 ", "+3", ".5", "5.", "1e-3", "2E2")] == [
            Fraction(-7, 2), 3, Fraction(1, 2), 5, Fraction(1, 1000), 200]

    @given(rationals)
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value


class TestRationalField:
    # the base field is fractions.Fraction; pin the contract it must meet
    def test_exact_addition(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_identity_division(self):
        assert Fraction(1) / Fraction(1) == 1

    def test_exact_product_reduced(self):
        result = Fraction(-3, 4) * Fraction(2, 3)
        assert result == Fraction(-1, 2)
        assert (result.numerator, result.denominator) == (-1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)

    @given(rationals)
    def test_always_reduced_positive_denominator(self, value):
        from math import gcd

        assert value.denominator > 0
        assert gcd(abs(value.numerator), value.denominator) == 1


class TestQuadExt:
    def test_s_squared_is_d(self):
        s = QuadExt(0, 1, 5)
        assert s * s == QuadExt(5, 0, 5)

    def test_alpha_beta_product_is_minus_q(self):
        alpha, beta = roots(1, 1)
        assert alpha * beta == QuadExt(-1, 0, 5)

    def test_alpha_squared_golden_ratio_relation(self):
        # direct expansion; with p=q=1 the root satisfies t² = t + 1
        alpha, _ = roots(1, 1)
        assert alpha * alpha == QuadExt(Fraction(3, 2), Fraction(1, 2), 5)
        assert alpha * alpha == alpha + 1

    def test_mixed_discriminants_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(1, 1, 5) * QuadExt(1, 1, 8)
        with pytest.raises(ValueError):
            QuadExt(1, 1, 5) + QuadExt(1, 1, 8)

    def test_zero_discriminant_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(1, 1, 0)

    def test_scalar_coercion(self):
        u = QuadExt(1, 2, 5)
        assert 3 * u == QuadExt(3, 6, 5)
        assert u + Fraction(1, 2) == QuadExt(Fraction(3, 2), 2, 5)
        assert 1 - u == QuadExt(0, -2, 5)


class TestPow:
    def test_zeroth_power(self):
        alpha, _ = roots(1, 1)
        assert alpha**0 == QuadExt(1, 0, 5)

    def test_sixth_power_matches_fib_identity(self):
        # oracle: α^n = F_n·α + q·F_{n−1}, so α^6 = 8α + 5 = 9 + 4s
        alpha, _ = roots(1, 1)
        expected = alpha * fib(1, 1, 6) + 1 * fib(1, 1, 5)
        assert expected == QuadExt(9, 4, 5)
        assert alpha**6 == expected

    def test_negative_power(self):
        # α(α−1) = 1 for p=q=1, so α^{-1} = α − 1
        alpha, _ = roots(1, 1)
        inv = alpha**-1
        assert inv == QuadExt(Fraction(-1, 2), Fraction(1, 2), 5)
        assert alpha * inv == QuadExt(1, 0, 5)

    def test_non_invertible_negative_power(self):
        # norm x² − Dy² = 0 for (2, 1) with D = 4
        u = QuadExt(2, 1, 4)
        assert u.norm() == 0
        with pytest.raises(ZeroDivisionError):
            u**-1

    def test_power_addition_law(self):
        alpha, beta = roots(2, -2)
        for base in (alpha, beta, QuadExt(2, Fraction(1, 3), -4)):
            powers = {n: base**n for n in range(-8, 9)}
            for m in range(-8, 9):
                for n in range(-8, 9):
                    if -8 <= m + n <= 8:
                        assert powers[m] * powers[n] == powers[m + n]


class TestRoots:
    def test_golden_pair(self):
        alpha, beta = roots(1, 1)
        assert alpha == QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
        assert beta == QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)

    def test_pell_pair(self):
        alpha, _ = roots(2, 1)
        assert alpha == QuadExt(1, Fraction(1, 2), 8)

    def test_q_zero_rejected(self):
        with pytest.raises(ValueError):
            roots(1, 0)

    def test_repeated_root_rejected(self):
        with pytest.raises(ValueError):
            roots(2, -1)

    def test_sum_and_difference(self):
        for p, q in GRID_PQ:
            alpha, beta = roots(p, q)
            assert (alpha + beta).rational_part() == p
            assert alpha - beta == QuadExt(0, 1, p * p + 4 * q)
            assert (alpha * beta).rational_part() == -q


class TestRationalPart:
    def test_projection(self):
        assert QuadExt(5, 0, 5).rational_part() == 5

    def test_nonzero_residue_raises(self):
        with pytest.raises(IrrationalResidueError):
            QuadExt(0, 1, 5).rational_part()


class TestRingLaws:
    @given(quad(5), quad(5), quad(5))
    def test_commutative_associative_distributive(self, u, v, w):
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w

    @given(quad(-7), quad(-7))
    def test_conjugation_multiplicative(self, u, v):
        assert (u * v).conjugate() == u.conjugate() * v.conjugate()

    @given(quad(8))
    def test_norm_is_self_times_conjugate(self, u):
        assert u * u.conjugate() == QuadExt(u.norm(), 0, 8)
        assert u.norm() == u.x * u.x - 8 * u.y * u.y


def test_alpha_powers_expand_in_fib_basis():
    # cross-module: α^n = F_n·α + q·F_{n−1} on the whole grid
    for p, q in GRID_PQ:
        alpha, _ = roots(p, q)
        power = alpha
        for n in range(1, 31):
            assert power == alpha * fib(p, q, n) + fib(p, q, n - 1) * Fraction(q), (p, q, n)
            power = power * alpha


class TestIntegerNumerators:
    """QuadExt keeps integer numerators over one denominator; check it
    against the plain-Fraction reference ring op by op."""

    @staticmethod
    def same(u: QuadExt, ref: FracQuad) -> bool:
        return (u.x, u.y, u.d) == (ref.x, ref.y, ref.d)

    @given(st.sampled_from((5, -7, 8, 13)), rationals, rationals, rationals, rationals)
    def test_ring_ops_match_fraction_reference(self, d, x1, y1, x2, y2):
        u, v = QuadExt(x1, y1, d), QuadExt(x2, y2, d)
        ru, rv = FracQuad(x1, y1, d), FracQuad(x2, y2, d)
        assert self.same(u + v, ru + rv)
        assert self.same(u - v, ru - rv)
        assert self.same(u * v, ru * rv)
        assert self.same(u.conjugate(), ru.conjugate())
        assert u.norm() == ru.norm()
        if rv.norm() != 0:
            assert self.same(u / v, ru / rv)
            assert self.same(v.inverse(), rv.inverse())

    @given(st.sampled_from((5, -7, 8, 13)), rationals, rationals, st.integers(-7, 7))
    def test_pow_matches_fraction_reference(self, d, x, y, exponent):
        u, ref = QuadExt(x, y, d), FracQuad(x, y, d)
        if exponent < 0 and ref.norm() == 0:
            with pytest.raises(ZeroDivisionError):
                u**exponent
            return
        assert self.same(u**exponent, ref**exponent)

    @given(rationals, rationals, st.integers(-9, 9))
    def test_scalar_ops_match_fraction_reference(self, x, y, k):
        u, ref = QuadExt(x, y, 5), FracQuad(x, y, 5)
        scalar = FracQuad(k, 0, 5)
        assert self.same(u * k, ref * scalar)
        assert self.same(u + k, ref + scalar)
        assert self.same(k - u, scalar - ref)
        assert self.same(u * x, ref * FracQuad(x, 0, 5))
        if k:
            assert self.same(u / k, ref / scalar)

    @given(rationals, rationals)
    def test_int_and_fraction_components_equal_and_hash_equal(self, x, y):
        from_fraction = QuadExt(Fraction(x), Fraction(y), 8)
        doubled = QuadExt(2 * x, 2 * y, 8) * Fraction(1, 2)
        assert from_fraction == doubled
        assert hash(from_fraction) == hash(doubled)
        if x.denominator == 1 and y.denominator == 1:
            from_int = QuadExt(int(x), int(y), 8)
            assert from_int == from_fraction
            assert hash(from_int) == hash(from_fraction)

    def test_int_and_fraction_construction_agree(self):
        assert QuadExt(3, -4, 5) == QuadExt(Fraction(6, 2), Fraction(-4), 5)
        assert hash(QuadExt(3, -4, 5)) == hash(QuadExt(Fraction(6, 2), Fraction(-4), 5))
        assert hash(QuadExt(3, -4, 5)) == hash((Fraction(3), Fraction(-4), 5))

    def test_components_are_int_when_integral(self):
        alpha, beta = roots(1, 1)
        square = (alpha - beta) * (alpha - beta)
        assert square == QuadExt(5, 0, 5)
        assert type(square.x) is int and type(square.rational_part()) is int
        assert alpha.x == Fraction(1, 2) and type(alpha.x) is Fraction

    def test_rational_part_raises_on_s_residue_after_arithmetic(self):
        alpha, beta = roots(2, 3)
        with pytest.raises(IrrationalResidueError):
            (alpha**5 - beta**5).rational_part()
        assert (alpha**5 + beta**5).rational_part() == 2**5 + 5 * 2**3 * 3 + 5 * 2 * 9

    def test_division_by_zero_scalar(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 1, 5) / 0
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 1, 5) / Fraction(0)
