"""Tests for two-generator membership and elasticity."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from affmon.errors import NotMemberError, ZeroElementError
from affmon.intlin import D2_INCONCLUSIVE, IDENTITY, d2_test
from affmon.monoids import CanonicalMonoid2
from affmon.oracle import enumerate_factorizations
from affmon.rationals import Vec2
from affmon.factorization import DIVISIBILITY_FAILS, PHI_OUT_OF_RANGE
from affmon.solve2 import elasticity2, member2

from conftest import vecs


M32 = CanonicalMonoid2(a=3, b=2, transform=IDENTITY)


class TestMember2:
    def test_member_with_unique_factorization(self):
        res = member2(M32, Vec2(6, 5))
        assert res.member
        assert res.factorization.mults == (1, 2)
        assert res.factorization.length == 3
        assert res.factorizations == (res.factorization,)

    def test_slope_too_steep(self):
        res = member2(M32, Vec2(6, 3))
        assert not res.member
        assert res.reason == PHI_OUT_OF_RANGE
        assert res.factorization is None

    def test_divisibility_failure(self):
        res = member2(M32, Vec2(4, 9))
        assert not res.member
        assert res.reason == DIVISIBILITY_FAILS

    def test_non_member_has_no_factorizations(self):
        # (), as from member3: None would mean "not computed".
        assert member2(M32, Vec2(6, 3)).factorizations == ()
        assert member2(M32, Vec2(4, 9)).factorizations == ()

    def test_vertical_axis_members(self):
        res = member2(M32, Vec2(0, 7))
        assert res.member
        assert res.factorization.mults == (7, 0)

    def test_zero_is_member_with_empty_factorization(self):
        res = member2(M32, Vec2(0, 0))
        assert res.member
        assert res.factorization.mults == (0, 0)


class TestElasticity2:
    def test_member_has_elasticity_one(self):
        assert elasticity2(M32, Vec2(6, 5)) == Fraction(1)
        assert elasticity2(M32, Vec2(0, 7)) == Fraction(1)

    def test_zero_element_rejected(self):
        with pytest.raises(ZeroElementError):
            elasticity2(M32, Vec2(0, 0))

    def test_non_member_rejected(self):
        with pytest.raises(NotMemberError):
            elasticity2(M32, Vec2(6, 3))


@st.composite
def dim2_monoids(draw):
    from math import gcd

    a = draw(st.integers(min_value=1, max_value=9))
    b = draw(st.integers(min_value=0, max_value=9).filter(lambda b: gcd(a, b) == 1))
    return CanonicalMonoid2(a=a, b=b, transform=IDENTITY)


class TestAgainstOracle:
    @given(m=dim2_monoids(), s=vecs(max_coord=30))
    def test_verdict_matches_exhaustive_search(self, m, s):
        res = member2(m, s)
        facts = enumerate_factorizations(m.gens, s)
        assert res.member == bool(facts.facts)
        if res.member:
            assert facts.facts == (res.factorization,)

    @given(m=dim2_monoids(), s=vecs(max_coord=30), t=vecs(max_coord=30))
    def test_members_closed_under_addition(self, m, s, t):
        if member2(m, s).member and member2(m, t).member:
            assert member2(m, s + t).member

    @given(m=dim2_monoids(), s=vecs(max_coord=30))
    def test_members_pass_the_coarse_lattice_screen(self, m, s):
        if member2(m, s).member:
            assert d2_test([(g.x, g.y) for g in m.gens], s) == D2_INCONCLUSIVE
