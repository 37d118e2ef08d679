"""Integer linear algebra: extended gcd, row-swapped normal form, d1/d2."""

from itertools import product
from math import gcd

import pytest
from hypothesis import given, strategies as st

from affmon import (
    BothZeroError,
    NegativeResultError,
    NotPhiMinimalError,
    UniMat2,
    Vec2,
    d2_test,
    det_divisors,
    enumerate_factorizations,
    ext_gcd,
    row_swapped_hnf,
)
from affmon.intlin import D2_INCONCLUSIVE, D2_NOT_MEMBER, IDENTITY


# Shears and swaps cover a useful slice of the unimodular group.
unimats = st.one_of(
    st.integers(-5, 5).map(lambda k: UniMat2(1, k, 0, 1)),
    st.integers(-5, 5).map(lambda k: UniMat2(1, 0, k, 1)),
    st.integers(-5, 5).map(lambda k: UniMat2(0, 1, 1, k)),
    st.integers(-5, 5).map(lambda k: UniMat2(k, 1, -1, 0)),
)


@pytest.mark.parametrize("entries", [(1, 1, 1, 1), (2, 0, 0, 1)], ids=["det-0", "det-2"])
def test_unimat_rejects_a_determinant_other_than_plus_or_minus_one(entries):
    with pytest.raises(ValueError, match="determinant must be"):
        UniMat2(*entries)


class TestExtGcd:
    def test_pinned(self):
        g, s, t = ext_gcd(11, 10)
        assert g == 1 and s * 11 + t * 10 == 1
        assert ext_gcd(0, 5) == (5, 0, 1)
        g, s, t = ext_gcd(4, 6)
        assert g == 2 and s * 4 + t * 6 == 2

    def test_both_zero_rejected(self):
        with pytest.raises(BothZeroError):
            ext_gcd(0, 0)

    @given(st.integers(-500, 500), st.integers(-500, 500))
    def test_bezout_identity(self, a, b):
        if a == 0 and b == 0:
            return
        g, s, t = ext_gcd(a, b)
        assert g == gcd(a, b) > 0
        assert s * a + t * b == g


class TestRowSwappedHnf:
    def test_already_canonical_is_identity(self):
        m = ((0, 1), (11, 10), (10, 3))
        u, m2 = row_swapped_hnf(m)
        assert u == IDENTITY
        assert m2 == m

    def test_pinned_two_generator_example(self):
        m = [(2, 1), (3, 1)]
        u, m2 = row_swapped_hnf(m)
        assert m2 == ((0, 1), (1, 1))
        assert u.as_rows() == ((1, -2), (0, 1))
        assert u.det == 1
        assert tuple(u.apply(*c) for c in m) == m2

    def test_single_column(self):
        u, m2 = row_swapped_hnf([(3, 2)])
        assert m2 == ((0, 1),)
        assert abs(u.det) == 1
        assert u.apply(3, 2) == (0, 1)

    def test_rejects_non_coprime_first_column(self):
        with pytest.raises(NotPhiMinimalError):
            row_swapped_hnf([(2, 4), (1, 1)])

    def test_rejects_columns_of_smaller_slope(self):
        # (0,1) has smaller slope than (1,1); with the wrong column first the
        # transform leaves the nonnegative quadrant.
        with pytest.raises(NegativeResultError):
            row_swapped_hnf([(1, 1), (0, 1)])

    def test_rejects_a_column_sent_below_the_first_axis(self):
        # (-1, -2) maps to (0, -1), which no shift by the first row repairs.
        with pytest.raises(NegativeResultError, match=r"column maps to \(0, -1\)"):
            row_swapped_hnf([(1, 2), (-1, -2)])

    def test_repairs_negative_second_row(self):
        # The raw Bezout row for (5,3) is (-1, 2), which sends (3,1) to
        # second coordinate -1; a shift by the first row must repair that
        # while keeping the transform unimodular.
        m = [(5, 3), (3, 1)]
        u, m2 = row_swapped_hnf(m)
        assert m2 == ((0, 1), (4, 3))
        assert u.det == 1
        assert tuple(u.apply(*c) for c in m) == m2

    def test_shift_is_the_least_that_repairs_the_second_row(self):
        # Every slope-ordered pair of phi-minimal columns with entries <= 7
        # whose Bezout row sends the second column below zero.  A shift one
        # smaller subtracts the first row, (0, 1) -> (0, 1) and
        # (x, y) -> (x, y - x), so y - x must then be negative.
        cols = [(x, y) for x, y in product(range(8), repeat=2) if gcd(x, y) == 1]
        shifted = 0
        for c1, c2 in product(cols, repeat=2):
            if c1[0] * c2[1] >= c2[0] * c1[1]:
                continue
            _, s, t = ext_gcd(*c1)
            if s * c2[0] + t * c2[1] >= 0:
                continue
            shifted += 1
            u, (first, (x, y)) = row_swapped_hnf([c1, c2])
            assert first == (0, 1) and u.apply(*c2) == (x, y)
            assert y >= 0, (c1, c2)
            assert y - x < 0, (c1, c2)
        assert shifted == 204

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(
                lambda p: gcd(p[0], p[1]) == 1
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    def test_preserves_column_gcds(self, pairs):
        pairs = sorted(pairs, key=lambda p: (p[0], -p[1]))
        # ascending-slope order: sort by cross product
        import functools

        pairs = sorted(
            pairs, key=functools.cmp_to_key(lambda u, v: u[0] * v[1] - v[0] * u[1])
        )
        try:
            _, m2 = row_swapped_hnf(pairs)
        except NegativeResultError:
            return
        for col in m2:
            assert gcd(col[0], col[1]) == 1


class TestDetDivisors:
    def test_pinned(self):
        assert det_divisors([(0, 1), (11, 10), (10, 3)]) == (1, 1)
        assert det_divisors([(0, 1), (3, 2)])[1] == 3
        assert det_divisors([(0, 1), (4, 1), (6, 1)]) == (1, 2)

    def test_second_divisor_of_two_generators_is_a(self):
        for a, b in [(1, 1), (3, 2), (7, 4), (5, 0)]:
            assert det_divisors([(0, 1), (a, b)])[1] == a

    def test_single_column(self):
        assert det_divisors([(4, 6)]) == (2, 0)

    @given(
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=4),
        unimats,
    )
    def test_invariant_under_unimodular_multiplication(self, cols, u):
        assert det_divisors([u.apply(*c) for c in cols]) == det_divisors(cols)

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda p: p != (0, 0)),
            min_size=1,
            max_size=3,
        ),
        st.lists(st.integers(0, 4), min_size=1, max_size=3),
    )
    def test_appending_combinations_changes_nothing(self, cols, mults):
        mults = (mults + [0] * len(cols))[: len(cols)]
        extra = (
            sum(k * c[0] for k, c in zip(mults, cols)),
            sum(k * c[1] for k, c in zip(mults, cols)),
        )
        assert det_divisors([*cols, extra]) == det_divisors(cols)


class TestD2Test:
    def test_passing_non_member_from_worked_example(self):
        m = [(0, 1), (11, 10), (10, 3)]
        assert d2_test(m, Vec2(199, 119)) == D2_INCONCLUSIVE

    def test_detects_divisor_drop(self):
        m = [(0, 1), (2, 1)]
        assert d2_test(m, Vec2(3, 5)) == D2_NOT_MEMBER
        assert d2_test(m, Vec2(4, 3)) == D2_INCONCLUSIVE

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda p: p != (0, 0)),
            min_size=2,
            max_size=3,
            unique=True,
        ),
        st.tuples(st.integers(0, 25), st.integers(0, 25)),
    )
    def test_not_member_verdicts_are_sound(self, cols, target):
        s = Vec2(*target)
        if d2_test(cols, s) == D2_NOT_MEMBER:
            gens = tuple(Vec2(*c) for c in cols)
            assert not enumerate_factorizations(gens, s).member


class TestColumnCheck:
    """The one entry check on columns: at least one, each a pair of ints."""

    BAD = [
        pytest.param([], id="no-columns"),
        pytest.param([(0, 1), (1, 2, 3)], id="triple"),
        pytest.param([(0, 1), (1,)], id="single"),
        pytest.param([(0, 1), (1, 2.0)], id="float-entry"),
        pytest.param([(0, 1), ("1", 2)], id="str-entry"),
        pytest.param([(0, 1), 5], id="int-column"),
        pytest.param([(0, 1), None], id="none-column"),
    ]

    @pytest.mark.parametrize("cols", BAD)
    def test_row_swapped_hnf_rejects(self, cols):
        with pytest.raises(ValueError, match="columns of integer pairs"):
            row_swapped_hnf(cols)

    @pytest.mark.parametrize("cols", BAD)
    def test_det_divisors_rejects(self, cols):
        with pytest.raises(ValueError, match="columns of integer pairs"):
            det_divisors(cols)

    @pytest.mark.parametrize("cols", BAD)
    def test_d2_test_rejects(self, cols):
        with pytest.raises(ValueError, match="columns of integer pairs"):
            d2_test(cols, Vec2(1, 1))
