"""Exact rational arithmetic and the slope order."""

import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affmon import ONE, ExtRat, Vec2, is_phi_minimal, slope_compare
from conftest import nonzero_vecs


def ext_rats(max_val: int = 200) -> st.SearchStrategy[ExtRat]:
    return st.tuples(st.integers(0, max_val), st.integers(1, max_val)).map(lambda p: ExtRat(*p))


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


class TestExtRat:
    def test_stored_in_lowest_terms(self):
        assert ExtRat(21, 15) == ExtRat(7, 5)
        assert ExtRat(21, 15).numerator == 7
        assert ExtRat(4, 2) == ExtRat(2, 1)

    def test_zero_denominator_is_rejected(self):
        with pytest.raises(ValueError):
            ExtRat(5, 0)

    def test_rejects_zero_over_zero_and_negatives(self):
        with pytest.raises(ValueError):
            ExtRat(0, 0)
        with pytest.raises(ValueError):
            ExtRat(-1, 2)
        with pytest.raises(ValueError):
            ExtRat(1, -2)

    def test_cross_multiplied_order(self):
        assert ExtRat(6, 13) < ExtRat(1, 2)  # 12 < 13
        assert ExtRat(0, 7) < ONE < ExtRat(10, 3)
        assert not ONE < ExtRat(3, 3)

    def test_abs_diff(self):
        assert ExtRat(7, 5).abs_diff(ExtRat(4, 3)) == ExtRat(1, 15)
        assert ExtRat(4, 3).abs_diff(ExtRat(7, 5)) == ExtRat(1, 15)
        assert ExtRat(7, 5).abs_diff(ExtRat(7, 5)) == ExtRat(0, 1)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            ExtRat(1.5)
        with pytest.raises(TypeError):
            ExtRat(Fraction(1, 2))

    def test_pickle_and_deepcopy_keep_the_type(self):
        value = ExtRat(7, 5)
        pickled = [pickle.loads(pickle.dumps(value, n)) for n in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in (*pickled, copy.copy(value), copy.deepcopy(value)):
            assert copied == value
            assert type(copied) is ExtRat

    @given(st.integers(0, 10**6), st.integers(1, 10**6), st.integers(0, 10**6), st.integers(1, 10**6))
    def test_behaves_like_fraction(self, p, q, r, s):
        a, b = ExtRat(p, q), ExtRat(r, s)
        fa, fb = Fraction(p, q), Fraction(r, s)
        assert a == fa and str(a) == str(fa) and hash(a) == hash(fa)
        ops = (operator.lt, operator.le, operator.eq, operator.ge, operator.gt)
        assert [op(a, b) for op in ops] == [op(fa, fb) for op in ops]
        assert a.abs_diff(b) == abs(a - b)
        assert type(a.abs_diff(b)) is ExtRat

    def test_str_and_parse(self):
        # str prints "p/q" in lowest terms, or "p" for an integer, which
        # fractions.Fraction parses back.
        assert str(ExtRat(7, 5)) == "7/5"
        assert str(ExtRat(3, 1)) == "3"
        assert str(ExtRat(0, 4)) == "0"
        assert Fraction(str(ExtRat(14, 10))) == Fraction(7, 5)

    @given(ext_rats())
    def test_parse_round_trips(self, value):
        assert Fraction(str(value)) == Fraction(value.numerator, value.denominator)

    @given(ext_rats(), ext_rats(), ext_rats())
    def test_total_order(self, p, q, r):
        assert (p < q) + (p == q) + (p > q) == 1
        if p <= q and q <= r:
            assert p <= r


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
