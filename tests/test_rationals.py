"""Exact rational arithmetic and the slope map."""

import math

import pytest
from hypothesis import given, strategies as st

from affmon import (
    INF,
    ONE,
    ZERO,
    ExtRat,
    Vec2,
    ZeroVectorError,
    compare,
    is_phi_minimal,
    mediant,
    phi,
    slope_compare,
)
from conftest import nonzero_vecs


def ext_rats(max_val: int = 200) -> st.SearchStrategy[ExtRat]:
    return st.tuples(st.integers(0, max_val), st.integers(0, max_val)).filter(
        lambda p: p != (0, 0)
    ).map(lambda p: ExtRat(*p))


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


class TestExtRat:
    def test_stored_in_lowest_terms(self):
        assert ExtRat(21, 15) == ExtRat(7, 5)
        assert ExtRat(21, 15).num == 7
        assert ExtRat(4, 2) == ExtRat(2, 1)

    def test_infinity_is_canonical(self):
        assert ExtRat(5, 0) == INF
        assert ExtRat(5, 0).num == 1
        assert INF.is_infinite

    def test_rejects_zero_over_zero_and_negatives(self):
        with pytest.raises(ValueError):
            ExtRat(0, 0)
        with pytest.raises(ValueError):
            ExtRat(-1, 2)
        with pytest.raises(ValueError):
            ExtRat(1, -2)

    def test_cross_multiplied_order(self):
        assert ExtRat(6, 13) < ExtRat(1, 2)  # 12 < 13
        assert INF > ExtRat(10, 3)
        assert not INF < INF
        assert ZERO < ONE < INF

    def test_compare_three_way(self):
        assert compare(ExtRat(6, 13), ExtRat(1, 2)) == -1
        assert compare(ExtRat(21, 15), ExtRat(7, 5)) == 0
        assert compare(INF, ExtRat(10, 3)) == 1

    def test_abs_diff(self):
        assert ExtRat(7, 5).abs_diff(ExtRat(4, 3)) == ExtRat(1, 15)
        assert ExtRat(4, 3).abs_diff(ExtRat(7, 5)) == ExtRat(1, 15)
        assert ExtRat(7, 5).abs_diff(ExtRat(7, 5)) == ZERO
        assert INF.abs_diff(ONE) == INF
        with pytest.raises(ValueError):
            INF.abs_diff(INF)

    def test_pow_sign(self):
        assert ExtRat(7, 5).pow_sign(-1) == ExtRat(5, 7)
        assert ExtRat(7, 5).pow_sign(0) == ONE
        assert ExtRat(7, 5).pow_sign(1) == ExtRat(7, 5)
        assert ZERO.pow_sign(-1) == INF
        assert INF.pow_sign(-1) == ZERO
        with pytest.raises(ValueError):
            ONE.pow_sign(2)

    def test_approx(self):
        assert ExtRat(7, 5).approx() == pytest.approx(1.4)
        assert INF.approx() == math.inf
        assert ExtRat(10**400, 3).approx() == math.inf  # beyond float range
        assert ExtRat(10**400, 10**399).approx() == pytest.approx(10.0)

    def test_str_and_parse(self):
        assert str(ExtRat(7, 5)) == "7/5"
        assert str(ExtRat(3, 1)) == "3"
        assert str(INF) == "inf"
        assert ExtRat.parse("7/5") == ExtRat(7, 5)
        assert ExtRat.parse("3") == ExtRat(3, 1)
        assert ExtRat.parse("inf") == INF
        with pytest.raises(ValueError):
            ExtRat.parse("7/5/3")
        with pytest.raises(ValueError):
            ExtRat.parse("-1/2")

    @given(ext_rats())
    def test_parse_round_trips(self, value):
        assert ExtRat.parse(str(value)) == value

    @given(ext_rats(), ext_rats(), ext_rats())
    def test_total_order(self, p, q, r):
        assert (p < q) + (p == q) + (p > q) == 1
        if p <= q and q <= r:
            assert p <= r


class TestPhi:
    def test_pinned_values(self):
        assert phi(Vec2(6, 13)) == ExtRat(6, 13)
        assert phi(Vec2(3, 0)) == INF
        assert phi(Vec2(0, 5)) == ZERO

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            phi(Vec2(0, 0))

    @given(nonzero_vecs(), st.integers(1, 50))
    def test_scaling_invariance(self, v, k):
        assert phi(k * v) == phi(v)

    @given(nonzero_vecs(), nonzero_vecs())
    def test_slope_compare_matches_phi_order(self, u, v):
        assert slope_compare(u, v) == compare(phi(u), phi(v))


class TestMediant:
    def test_pinned(self):
        assert mediant(Vec2(0, 1), Vec2(1, 1)) == Vec2(1, 2)

    @given(nonzero_vecs(), nonzero_vecs())
    def test_strictly_between(self, u, v):
        if phi(u) < phi(v):
            m = mediant(u, v)
            assert phi(u) < phi(m) < phi(v)


class TestPhiMinimal:
    def test_examples(self):
        assert is_phi_minimal(Vec2(3, 5))
        assert is_phi_minimal(Vec2(0, 1))
        assert not is_phi_minimal(Vec2(2, 4))
        assert not is_phi_minimal(Vec2(0, 2))
        assert not is_phi_minimal(Vec2(0, 0))
