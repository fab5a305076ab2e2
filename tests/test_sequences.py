"""Tests for the scalar and hybrid sequences."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridseq import (
    HoradamParams,
    HybridNumber,
    SeqCache,
    fib,
    fib_params,
    horadam,
    horadam_fast,
    hybrid_seq,
    lucas_params,
    verify_scalar_identities,
)

from helpers import (
    GRID_PARAMS,
    GRID_PQ,
    SMALL_PQ,
    fib_oracle,
    hybrid_oracle,
    lucas_oracle,
    seq_oracle,
)


class TestParams:
    def test_q_zero_rejected(self):
        with pytest.raises(ValueError):
            HoradamParams(1, 0, 0, 1)

    def test_zero_discriminant_rejected(self):
        with pytest.raises(ValueError):
            HoradamParams(2, -1, 0, 1)

    def test_discriminant(self):
        assert HoradamParams(3, -1, 0, 1).discriminant == 5


class TestScalarValues:
    def test_classical_fib_prefix(self):
        expected = [0, 1, 1, 2, 3, 5, 8, 13]
        assert [fib(1, 1, n) for n in range(8)] == expected
        assert [fib_oracle(1, 1, n) for n in range(8)] == expected

    def test_classical_lucas_prefix(self):
        expected = [2, 1, 3, 4]
        assert [horadam(lucas_params(1, 1), n) for n in range(4)] == expected
        assert [lucas_oracle(1, 1, n) for n in range(4)] == expected

    def test_lucas_one_is_p(self):
        for p, q in GRID_PQ:
            assert horadam(lucas_params(p, q), 1) == p

    def test_horadam_tenth_fib(self):
        assert horadam(fib_params(1, 1), 10) == 55

    def test_initial_values(self):
        for params in GRID_PARAMS:
            assert horadam(params, 0) == params.a
            assert horadam(params, 1) == params.b

    def test_backward_unit_value(self):
        assert horadam(fib_params(1, 1), -1) == 1
        for p, q in GRID_PQ:
            assert fib(p, q, -1) == Fraction(1, q)

    def test_two_sided_recurrence(self):
        for params in GRID_PARAMS:
            values = {n: horadam(params, n) for n in range(-8, 43)}
            for n in range(-8, 41):
                assert params.p * values[n + 1] + params.q * values[n] == values[n + 2]

    def test_negative_indices_integral_for_unit_q(self):
        for params in GRID_PARAMS:
            if abs(params.q) != 1:
                continue
            for n in range(-8, 0):
                assert horadam(params, n).denominator == 1


class TestFastPath:
    def test_fib_forty(self):
        assert horadam_fast(fib_params(1, 1), 40) == 102334155
        assert seq_oracle(1, 1, 0, 1, 40) == 102334155

    def test_first_seed(self):
        for params in GRID_PARAMS[:4]:
            assert horadam_fast(params, 1) == params.b

    def test_pell_eighth(self):
        assert horadam_fast(fib_params(2, 1), 8) == 408
        assert seq_oracle(2, 1, 0, 1, 8) == 408

    def test_matches_recurrence_everywhere(self):
        for p, q in GRID_PQ:
            for params in (fib_params(p, q), lucas_params(p, q)):
                cache = SeqCache(params)
                for n in range(-8, 501):
                    assert horadam_fast(params, n) == cache.value(n), (params, n)


class TestSeek:
    """Far indices against the index-by-index oracle, on both sides of 0."""

    PARAMS = [(1, 1, 0, 1), (2, -3, 2, 5), (-1, 2, 3, -2), (3, 4, 1, 2)]

    @pytest.mark.parametrize("p,q,a,b", PARAMS)
    @pytest.mark.parametrize("n", [-3000, -1000, 1000, 3000])
    def test_far_index_matches_oracle(self, p, q, a, b, n):
        value = horadam(HoradamParams(p, q, a, b), n)
        expected = seq_oracle(p, q, a, b, n)
        assert value == expected
        # an int exactly when integral
        assert type(value) is (int if expected.denominator == 1 else Fraction)


class TestSeqCache:
    def test_matches_pure_path(self):
        params = HoradamParams(3, -2, 1, 1)
        cache = SeqCache(params)
        for n in (0, 5, -3, 12, -7, 5):
            assert cache.value(n) == horadam(params, n)

    def test_cached_values_satisfy_recurrence(self):
        params = HoradamParams(2, 2, 2, 3)
        cache = SeqCache(params)
        cache.value(20)
        cache.value(-6)
        memo = cache._memo
        for n in range(-6, 19):
            assert params.p * memo[n + 1] + params.q * memo[n] == memo[n + 2]

    @pytest.mark.parametrize("n", [10**6, -(10**6)])
    def test_far_value_memoizes_two_entries(self, n):
        # p = 1, q = −1 has period 6, so the value is known without a walk
        cache = SeqCache(HoradamParams(1, -1, 0, 1))
        assert cache.value(n) == (0, 1, 1, 0, -1, -1)[n % 6]
        assert len(cache._memo) == 2

    def test_memo_spans_only_the_requested_window(self):
        cache = SeqCache(HoradamParams(2, 3, 1, -1))
        for n in range(-50, 51):
            cache.window(n, n + 3)
        assert sorted(cache._memo) == list(range(-50, 54))


@st.composite
def anchored_requests(draw):
    """Parameters, a first index in [−200, 200] and later requests that
    fall on both sides of it, in random order."""
    p, q = draw(st.sampled_from(SMALL_PQ))
    a, b = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
    first = draw(st.integers(-200, 200))
    below = draw(st.lists(st.integers(first - 40, first - 1), min_size=1, max_size=4))
    above = draw(st.lists(st.integers(first + 1, first + 40), min_size=1, max_size=4))
    return (p, q, a, b), first, draw(st.permutations(below + above))


class TestIntegerFrontier:
    """Both frontiers step on integer numerators; the memo sees rationals."""

    @given(anchored_requests())
    def test_requests_around_the_anchor_match_oracle(self, case):
        (p, q, a, b), first, later = case
        cache = SeqCache(HoradamParams(p, q, a, b))
        requested = (first, *later)
        for n in requested:
            value = cache.value(n)
            expected = seq_oracle(p, q, a, b, n)
            assert value == expected, (p, q, a, b, first, n)
            assert type(value) is (int if expected.denominator == 1 else Fraction)
        memo = cache._memo
        lo, hi = min(requested), max(*requested, first + 1)
        assert sorted(memo) == list(range(lo, hi + 1))
        for n in range(lo, hi + 1):  # every entry: an int exactly when integral
            assert type(memo[n]) is int or memo[n].denominator != 1, (n, memo[n])
        for n in range(lo, hi - 1):
            assert p * memo[n + 1] + q * memo[n] == memo[n + 2]


class TestHybridSeq:
    def test_general_seed_hybrid(self):
        for params in GRID_PARAMS:
            p, q, a, b = params.p, params.q, params.a, params.b
            expected = HybridNumber(
                Fraction(a),
                Fraction(b),
                Fraction(p * b + q * a),
                Fraction((p * p + q) * b + p * q * a),
            )
            assert hybrid_seq(params, "horadam", 0) == expected

    def test_fib_windows(self):
        assert hybrid_seq(fib_params(1, 1), "fib", 0) == HybridNumber(0, 1, 1, 2)
        assert hybrid_seq(fib_params(1, 1), "fib", 1) == HybridNumber(1, 1, 2, 3)

    def test_lucas_window(self):
        assert hybrid_seq(fib_params(1, 1), "lucas", 0) == HybridNumber(2, 1, 3, 4)

    def test_recurrence(self):
        for params in GRID_PARAMS:
            win = {n: hybrid_seq(params, "horadam", n) for n in range(-6, 42)}
            for n in range(-5, 40):
                assert win[n + 1] == win[n].scale(Fraction(params.p)) + win[n - 1].scale(
                    Fraction(params.q)
                )

    def test_specialization_coherence(self):
        for p, q in GRID_PQ:
            seeded_fib = HoradamParams(p, q, 0, 1)
            seeded_lucas = HoradamParams(p, q, 2, p)
            anything = HoradamParams(p, q, 2, 3)
            for n in range(-4, 12):
                assert hybrid_seq(anything, "fib", n) == hybrid_seq(seeded_fib, "horadam", n)
                assert hybrid_seq(anything, "lucas", n) == hybrid_seq(seeded_lucas, "horadam", n)

    def test_matches_oracle(self):
        for params in GRID_PARAMS:
            for n in (-5, 0, 7, 23):
                assert hybrid_seq(params, "horadam", n) == hybrid_oracle(
                    params.p, params.q, params.a, params.b, n
                )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            hybrid_seq(fib_params(1, 1), "pell", 0)


class TestScalarIdentities:
    def test_classical_params(self):
        report = verify_scalar_identities(fib_params(1, 1), 12)
        assert report.ok and report.first_failure is None

    def test_negative_q(self):
        report = verify_scalar_identities(HoradamParams(3, -1, 0, 1), 12)
        assert report.ok

    @pytest.mark.parametrize("seeds,n,checked,failure", [
        ((0, 1), 6, 16, "F_2r != F_r*L_r at r=3"),
        ((2, 1), 4, 12, "(p²+4q)F_r² != L_2r - 2(-q)^r at r=2"),
        ((0, 1), -3, 16, "F_-r != -(-q)^-r F_r at r=3"),
    ])
    def test_a_planted_unit_is_reported(self, seeds, n, checked, failure, monkeypatch):
        planted, original = HoradamParams(1, 1, *seeds), SeqCache.value

        def value(self, k):
            return original(self, k) + (self.params == planted and k == n)

        monkeypatch.setattr(SeqCache, "value", value)
        assert verify_scalar_identities(fib_params(1, 1), 12) == (False, checked, failure)

    def test_double_index_spot(self):
        # F_6 = F_3·L_3 for p=q=1: 8 = 2·4
        assert fib(1, 1, 6) == 8
        assert fib(1, 1, 3) * horadam(lucas_params(1, 1), 3) == 8

    def test_zero_case(self):
        assert fib(1, 1, 0) == 0
        assert 5 * fib(1, 1, 0) ** 2 == horadam(lucas_params(1, 1), 0) - 2

    def test_whole_grid(self):
        for p, q in GRID_PQ:
            assert verify_scalar_identities(fib_params(p, q), 12).ok, (p, q)


class TestIntegerFirstValues:
    """Values stay int where they are integers and never become float."""

    GRID = [(p, q) for p in (-2, -1, 1, 3) for q in (-3, -2, -1, 1, 2, 3) if p * p + 4 * q != 0]

    @pytest.mark.parametrize("p,q", GRID)
    def test_types_and_values_against_fraction_oracle(self, p, q):
        for a, b in ((0, 1), (2, p), (3, -2)):
            params = HoradamParams(p, q, a, b)
            cache = SeqCache(params)
            for n in range(-40, 41):
                for value in (cache.value(n), horadam(params, n)):
                    assert value == seq_oracle(p, q, a, b, n), (p, q, a, b, n)
                    assert isinstance(value, (int, Fraction))
                    if n >= 0 or abs(q) == 1:
                        assert type(value) is int, (p, q, a, b, n, value)
                    elif isinstance(value, Fraction):
                        assert value.denominator != 1, (p, q, a, b, n)

    def test_hybrid_window_matches_hybrid_seq(self):
        params = HoradamParams(2, 3, 1, -1)
        cache = SeqCache(params)
        for n in range(-12, 13):
            hybrid = HybridNumber(*cache.window(n, n + 3))
            assert hybrid == hybrid_seq(params, "horadam", n)
            assert hybrid == hybrid_oracle(2, 3, 1, -1, n)
