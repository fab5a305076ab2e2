"""Tests for the generating-function series expansion."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hybridseq import (
    genfunc,
    HoradamParams,
    HybridNumber,
    binomial_series_coeff,
    check_expansion,
    expand,
    fib_params,
    hybrid_seq,
)
from hybridseq.genfunc import numerator_hybrids

from helpers import (
    GRID_PARAMS, GRID_PQ, SMALL_PQ, binomial_oracle, count_seqcache_reads, hybrid_oracle,
)


class TestNumerator:
    def test_constant_term_is_seed_hybrid(self):
        for params in GRID_PARAMS[:6]:
            constant, _ = numerator_hybrids(params)
            assert constant == hybrid_seq(params, "horadam", 0)

    def test_linear_term_closed_form(self):
        params = HoradamParams(2, -2, 1, 3)
        _, linear = numerator_hybrids(params)
        p, q, a, b = 2, -2, 1, 3
        assert linear == HybridNumber(
            Fraction(b - p * a), Fraction(q * a), Fraction(q * b), Fraction(p * q * b + q * q * a)
        )


class TestBinomialPath:
    def test_prefix(self):
        assert [binomial_series_coeff(1, 1, r) for r in range(6)] == [1, 1, 2, 3, 5, 8]
        assert binomial_series_coeff(1, 1, -1) == 0

    def test_recurrence_consistency(self):
        for p, q in GRID_PQ:
            coeffs = [binomial_series_coeff(p, q, r) for r in range(33)]
            for r in range(2, 33):
                assert coeffs[r] == p * coeffs[r - 1] + q * coeffs[r - 2], (p, q, r)


    @pytest.mark.parametrize("p,q", SMALL_PQ)
    def test_stepped_sum_matches_comb_reference(self, p, q):
        for r in range(-1, 201):
            assert binomial_series_coeff(p, q, r) == binomial_oracle(p, q, r), (p, q, r)


class TestExpansion:
    def test_constant_coefficient(self):
        expansion = expand(fib_params(1, 1), 0)
        assert expansion.coeffs[0] == hybrid_seq(fib_params(1, 1), "horadam", 0)

    def test_linear_coefficient(self):
        expansion = expand(HoradamParams(3, 2, 2, 3), 1)
        assert expansion.coeffs[1] == hybrid_seq(HoradamParams(3, 2, 2, 3), "horadam", 1)

    def test_classical_fifth_coefficient(self):
        expansion = expand(fib_params(1, 1), 5)
        assert hybrid_oracle(1, 1, 0, 1, 5) == HybridNumber(5, 8, 13, 21)
        assert expansion.coeffs[5] == HybridNumber(5, 8, 13, 21)

    def test_negative_terms_rejected(self):
        with pytest.raises(ValueError):
            expand(fib_params(1, 1), -1)


class TestCheck:
    def test_classical_full_window(self):
        report = check_expansion(fib_params(1, 1), 32)
        assert report.ok and report.first_mismatch is None
        assert len(report.matches) == 33

    def test_pell_lucas_window(self):
        assert check_expansion(HoradamParams(2, 1, 2, 2), 16).ok

    def test_single_term(self):
        report = check_expansion(fib_params(3, -2), 0)
        assert report.ok and report.matches == (True,)

    @pytest.mark.parametrize("terms", [0, 1, 40])
    def test_each_coefficient_computed_once(self, monkeypatch, terms):
        calls = []
        original = genfunc.binomial_series_coeff

        def counted(p, q, r):
            calls.append(r)
            return original(p, q, r)

        monkeypatch.setattr(genfunc, "binomial_series_coeff", counted)
        assert check_expansion(HoradamParams(2, -3, 1, 4), terms).ok
        assert sorted(calls) == list(range(terms + 1))

    def test_one_window_read(self, monkeypatch):
        params = HoradamParams(2, -3, 1, 4)
        reads = count_seqcache_reads(monkeypatch)
        assert check_expansion(params, 40).ok
        assert reads == {("window", params): 1}

    def test_full_grid(self):
        for params in GRID_PARAMS:
            assert check_expansion(params, 32).ok, params
