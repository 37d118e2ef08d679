"""Lattice points, the slope order, and the type of every exact value."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import affmon
from affmon import (
    CanonicalMonoid2,
    CanonicalMonoid3,
    Vec2,
    elasticity2,
    elasticity3,
    elasticity_oracle,
    is_phi_minimal,
    rho_limit,
    rho_special_ac,
    rho_special_c,
    scan_multiples,
    slope_compare,
)
from affmon.intlin import IDENTITY
from conftest import members3, nonzero_vecs, star_monoids


def slope_order(u: Vec2, v: Vec2) -> int:
    """Three-way order of the slopes x/y, cross-multiplied (y = 0 is the steepest)."""
    lhs, rhs = u.x * v.y, v.x * u.y
    return (lhs > rhs) - (lhs < rhs)


class TestVec2:
    def test_rejects_negative_coordinates(self):
        with pytest.raises(ValueError):
            Vec2(-1, 2)
        with pytest.raises(ValueError):
            Vec2(0, -3)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Vec2(1.5, 2)

    def test_vector_arithmetic(self):
        assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)
        assert 3 * Vec2(1, 2) == Vec2(3, 6)
        assert Vec2(2, 5) * 2 == Vec2(4, 10)

    def test_is_zero_and_str(self):
        assert Vec2(0, 0).is_zero
        assert not Vec2(0, 1).is_zero
        assert str(Vec2(6, 13)) == "(6, 13)"


def test_every_value_is_a_plain_fraction():
    assert affmon.ExtRat is Fraction
    star = CanonicalMonoid3(a=1, b=2, c=3, d=5, transform=IDENTITY)
    s = Vec2(6, 13)
    values = [
        elasticity2(CanonicalMonoid2(a=3, b=2, transform=IDENTITY), Vec2(6, 5)),
        elasticity3(star, s),
        rho_limit(star, s)[1],
        rho_special_ac(star, s, 3),
        rho_special_c(star, Vec2(3, 6), 3),
        elasticity_oracle(star.gens, s),
        scan_multiples(star, s, 2)[0],
    ]
    assert [type(value) for value in values] == [Fraction] * 7


class TestExactValues:
    # The values the solvers return, and the str the CLI prints for them.
    STAR = CanonicalMonoid3(a=1, b=2, c=3, d=5, transform=IDENTITY)
    SINGLE_LEN = CanonicalMonoid3(a=1, b=2, c=2, d=3, transform=IDENTITY)

    def test_stored_in_lowest_terms(self):
        # Lengths 20 and 15 at 4 * (7, 13) give 4/3, not 20/15.
        value = elasticity3(self.STAR, Vec2(28, 52))
        assert (value.numerator, value.denominator) == (4, 3)
        limit, rows = scan_multiples(self.STAR, Vec2(7, 13), 3)
        gap = abs(limit - elasticity3(self.STAR, Vec2(21, 39)))
        assert (gap.numerator, gap.denominator) == (0, 1)
        assert rows[2][3:] == (0, 1)

    def test_str_is_p_over_q_or_p(self):
        assert str(elasticity3(self.STAR, Vec2(6, 13))) == "7/5"
        assert str(rho_special_ac(self.SINGLE_LEN, Vec2(1, 3), 2)) == "1"
        limit, _ = scan_multiples(self.STAR, Vec2(6, 13), 1)
        assert str(abs(limit - elasticity3(self.STAR, Vec2(6, 13)))) == "0"

    @given(st.data())
    def test_str_parses_back_in_lowest_terms(self, data):
        m = data.draw(star_monoids(max_a=6, max_b=6, max_extra=2))
        s = data.draw(members3(m, max_mult=6))
        value = elasticity3(m, s)
        text = str(value)
        assert Fraction(text) == value
        n, d = value.numerator, value.denominator
        assert text == (f"{n}/{d}" if d > 1 else str(n))
        assert gcd(n, d) == 1

    @given(st.data())
    def test_order_matches_cross_multiplication(self, data):
        m = data.draw(star_monoids(max_a=6, max_b=6, max_extra=2))
        a = elasticity3(m, data.draw(members3(m, max_mult=6)))
        b = elasticity3(m, data.draw(members3(m, max_mult=6)))
        lhs, rhs = a.numerator * b.denominator, b.numerator * a.denominator
        assert (a < b, a == b, a > b) == (lhs < rhs, lhs == rhs, lhs > rhs)

    def test_pickle_and_deepcopy_keep_the_type(self):
        value = elasticity3(self.STAR, Vec2(6, 13))
        pickled = [pickle.loads(pickle.dumps(value, n)) for n in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in (*pickled, copy.copy(value), copy.deepcopy(value)):
            assert copied == value
            assert type(copied) is Fraction


class TestPhi:
    # phi(x, y) = x/y is the slope; slope_compare orders nonzero vectors by it.
    def test_pinned_values(self):
        assert slope_compare(Vec2(6, 13), Vec2(1, 2)) == -1
        assert slope_compare(Vec2(3, 0), Vec2(10**9, 1)) == 1
        assert slope_compare(Vec2(0, 5), Vec2(1, 10**9)) == -1
        assert slope_compare(Vec2(4, 6), Vec2(2, 3)) == 0

    @given(nonzero_vecs(), st.integers(1, 50))
    def test_scaling_invariance(self, v, k):
        assert slope_compare(k * v, v) == 0

    @given(nonzero_vecs(), nonzero_vecs())
    def test_slope_compare_matches_phi_order(self, u, v):
        assert slope_compare(u, v) == slope_order(u, v)


class TestPhiMinimal:
    def test_examples(self):
        assert is_phi_minimal(Vec2(3, 5))
        assert is_phi_minimal(Vec2(0, 1))
        assert not is_phi_minimal(Vec2(2, 4))
        assert not is_phi_minimal(Vec2(0, 2))
        assert not is_phi_minimal(Vec2(0, 0))
