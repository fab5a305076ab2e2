"""Tests for the hybrid number ring: unit table, algebra laws, character."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridseq import (
    BASIS,
    BASIS_LABELS,
    HybridNumber,
    QuadExt,
    basis_table,
    format_basis_product,
    parse_rational,
)

from helpers import UNIT_KEYS, UNIT_TABLE, rand_hybrid, table_mul

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
hybrids = st.builds(HybridNumber, rationals, rationals, rationals, rationals)

ONE, I, E, H = BASIS


class TestUnitTable:
    def test_all_sixteen_products_match_frozen_table(self):
        table = basis_table()
        for r, row_key in enumerate(UNIT_KEYS):
            for c, col_key in enumerate(UNIT_KEYS):
                assert table[r][c].parts() == UNIT_TABLE[(row_key, col_key)], (row_key, col_key)

    def test_defining_relations(self):
        assert I * I == -ONE
        assert E * E == HybridNumber(0, 0, 0, 0)
        assert H * H == ONE
        assert I * H == E + I
        assert H * I == -(E + I)

    def test_i_times_e(self):
        assert I * E == HybridNumber(1, 0, 0, -1)

    def test_e_times_i(self):
        assert E * I == HybridNumber(1, 0, 0, 1)

    def test_not_commutative(self):
        assert I * E != E * I


class TestProduct:
    def test_derived_example_against_table_oracle(self):
        z = HybridNumber(1, 1, 2, 3)
        w = HybridNumber(0, 1, 1, 2)
        expected = HybridNumber(8, 0, -1, 3)
        assert table_mul(z, w) == expected
        assert z * w == expected

    def test_scalar_on_either_side(self):
        z = HybridNumber(1, 1, 2, 3)
        assert z * 2 == 2 * z == HybridNumber(2, 2, 4, 6)
        assert z * Fraction(1, 2) == z.scale(Fraction(1, 2))
        s = QuadExt(0, 1, 5)
        assert z * s == s * z == HybridNumber(s, s, 2 * s, 3 * s)

    @given(hybrids, hybrids)
    def test_expansion_regenerated_from_table(self, z, w):
        assert z * w == table_mul(z, w)

    @given(hybrids, hybrids, hybrids)
    def test_associative_and_distributive(self, z, w, v):
        assert (z * w) * v == z * (w * v)
        assert z * (w + v) == z * w + z * v
        assert (w + v) * z == w * z + v * z

    @given(hybrids, hybrids, rationals)
    def test_bilinear_in_scalars(self, z, w, k):
        assert (z.scale(k)) * w == (z * w).scale(k)
        assert z * (w.scale(k)) == (z * w).scale(k)


class TestAdditiveGroup:
    def test_componentwise_sum(self):
        assert HybridNumber(0, 1, 1, 2) + HybridNumber(1, 1, 2, 3) == HybridNumber(1, 2, 3, 5)

    def test_negation(self):
        assert -HybridNumber(1, 0, 0, -1) == HybridNumber(-1, 0, 0, 1)

    def test_scaling(self):
        assert HybridNumber(1, 1, 2, 3).scale(2) == HybridNumber(2, 2, 4, 6)
        assert 2 * HybridNumber(1, 1, 2, 3) == HybridNumber(2, 2, 4, 6)

    @given(hybrids, hybrids)
    def test_commutative_addition(self, z, w):
        assert z + w == w + z
        assert (z + w) - w == z


class TestConjugate:
    def test_definition(self):
        assert HybridNumber(1, 2, 3, 4).conjugate() == HybridNumber(1, -2, -3, -4)

    def test_involution(self):
        z = HybridNumber(0, 1, 1, 2)
        assert z.conjugate().conjugate() == z

    def test_additive(self):
        z, w = HybridNumber(1, 1, 0, 0), HybridNumber(0, 0, 1, 1)
        assert (z + w).conjugate() == z.conjugate() + w.conjugate()

    def test_anti_automorphism_on_all_basis_pairs(self):
        for z in BASIS:
            for w in BASIS:
                assert (z * w).conjugate() == w.conjugate() * z.conjugate()

    @given(hybrids, hybrids)
    def test_anti_automorphism(self, z, w):
        assert (z * w).conjugate() == w.conjugate() * z.conjugate()


class TestCharacter:
    def test_unit_characters(self):
        assert E.character() == 0
        assert ONE.character() == 1
        assert H.character() == -1

    def test_formula_spot(self):
        assert HybridNumber(0, 2, 1, 1).character() == -1

    @given(hybrids)
    def test_equals_self_times_conjugate_both_ways(self, z):
        expected = HybridNumber.from_scalar(z.character())
        assert z * z.conjugate() == expected
        assert z.conjugate() * z == expected

    @given(hybrids, hybrids)
    def test_multiplicative(self, z, w):
        assert (z * w).character() == z.character() * w.character()


class TestNorm:
    def test_positive(self):
        norm = HybridNumber(2, 0, 0, 0).norm()
        assert norm.value == 2.0 and norm.sign_class == "positive"

    def test_null(self):
        norm = E.norm()
        assert norm.value == 0.0 and norm.sign_class == "null"

    def test_negative(self):
        norm = H.norm()
        assert norm.value == 1.0 and norm.sign_class == "negative"


    @pytest.mark.parametrize("s,value,roots", [
        (2**1024 - 2**971, sys.float_info.max, 1),  # the greatest float
        (2**1024 - 2**970, "out of", 1),  # its root rounds past it
        (2**1024, "out of", 1),  # the character's bits allow 2**2047
        (3 * 2**1023, "out of", 0),  # its bits say past 2**2048: no root taken
        (Fraction(1, 2**1074), 5e-324, 1),  # the least float
        (Fraction(1, 2**1075), "below", 1),  # half of it rounds to 0
        (Fraction(1, 3 * 2**1074), "below", 0),  # its bits say below 2**-2150
    ], ids=["max", "past-max", "2**2048", "bits-past", "least", "half-least", "bits-below"])
    def test_float_range_edges(self, monkeypatch, s, value, roots):
        calls = []
        isqrt = math.isqrt
        monkeypatch.setattr(math, "isqrt", lambda n: calls.append(n) or isqrt(n))
        z = HybridNumber(s, 0, 0, 0)
        if isinstance(value, float):
            assert z.norm() == (value, "positive")
        else:
            with pytest.raises(OverflowError, match=f"is {value} float range"):
                z.norm()
        assert len(calls) == roots


class TestCommutator:
    def test_self_commutator_vanishes(self):
        z = HybridNumber(1, 2, 3, 4)
        assert z * z - z * z == HybridNumber(0, 0, 0, 0)
        # z̄ = 2·Re(z) − z is a real shift of −z, so it commutes with z too
        assert z * z.conjugate() - z.conjugate() * z == HybridNumber(0, 0, 0, 0)

    def test_unit_commutator(self):
        assert I * E - E * I == HybridNumber(0, 0, 0, -2)

    def test_derived_example(self):
        z = HybridNumber(1, 1, 2, 3)
        w = HybridNumber(0, 1, 1, 2)
        expected = table_mul(z, w) - table_mul(w, z)
        assert expected == HybridNumber(0, -2, -4, 2)
        assert z * w - w * z == expected


class TestRandomizedLaws:
    def test_five_hundred_random_triples(self):
        rng = random.Random(20240501)
        for _ in range(500):
            z, w, v = (rand_hybrid(rng) for _ in range(3))
            assert (z * w) * v == z * (w * v)
            assert z * (w + v) == z * w + z * v
            assert (z * w).conjugate() == w.conjugate() * z.conjugate()
            assert z * z.conjugate() == HybridNumber.from_scalar(z.character())


class TestJson:
    def test_fixed_key_order(self):
        data = HybridNumber(Fraction(1, 2), 0, -2, Fraction(7)).to_json_dict()
        assert list(data) == ["s", "i", "e", "h"]
        assert data == {"s": "1/2", "i": "0", "e": "-2", "h": "7"}

    @given(hybrids)
    def test_round_trip(self, z):
        assert HybridNumber(*map(parse_rational, z.to_json_dict().values())) == z


class TestBasisRendering:
    @pytest.mark.parametrize(
        "row,col,text",
        [
            ("i", "ε", "1-h"),
            ("ε", "ε", "0"),
            ("h", "i", "-(ε+i)"),
            ("i", "h", "ε+i"),
            ("ε", "i", "1+h"),
            ("i", "i", "-1"),
            ("ε", "h", "-ε"),
        ],
    )
    def test_cells(self, row, col, text):
        table = basis_table()
        r, c = BASIS_LABELS.index(row), BASIS_LABELS.index(col)
        assert format_basis_product(table[r][c]) == text
