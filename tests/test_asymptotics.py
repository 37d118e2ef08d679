"""Tests for the periodic elasticity formulas, the limit LFT, and scans."""

import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
import hypothesis.strategies as st

from affmon import asymptotics
from affmon.asymptotics import (
    LimitLFT,
    rho_limit,
    rho_special_ac,
    rho_special_c,
    scan_multiples,
    tau,
)
from affmon.errors import (
    InputTooLargeError,
    NotMemberError,
    PeriodicityViolatedError,
    StarRequiredError,
    WrongBranchError,
    ZeroElementError,
)
from affmon.intlin import IDENTITY
from affmon.monoids import CanonicalMonoid3
from affmon.oracle import elasticity_oracle
from affmon.rationals import Vec2
from affmon.solve3 import elasticity3

from conftest import canonical_triples, members3, star_monoids


STAR = CanonicalMonoid3(a=1, b=2, c=3, d=5, transform=IDENTITY)
WORKED = CanonicalMonoid3(a=11, b=10, c=10, d=3, transform=IDENTITY)
TAU_NEG = CanonicalMonoid3(a=3, b=5, c=2, d=3, transform=IDENTITY)
SINGLE_LEN = CanonicalMonoid3(a=1, b=2, c=2, d=3, transform=IDENTITY)
# Star monoid where x = 1 is not a combination of a = 2 and c = 3.
GAPPY = CanonicalMonoid3(a=2, b=3, c=3, d=4, transform=IDENTITY)


def _shift(start, step, j):
    """The point start + j*step of a line."""
    return tuple(u + j * du for u, du in zip(start, step))


def _elasticity_rows(m, s, k_max):
    """Scan rows (k, p, q, n, d) from ``elasticity3`` of each multiple."""
    _, limit = rho_limit(m, s)
    rows = []
    for k in range(1, k_max + 1):
        rho = elasticity3(m, k * s)
        gap = abs(limit - rho)
        rows.append((k, rho.numerator, rho.denominator, gap.numerator, gap.denominator))
    return rows


class TestTau:
    def test_signs(self):
        assert tau(STAR) == 1
        assert tau(SINGLE_LEN) == 0
        assert tau(TAU_NEG) == -1


class TestLimitLFT:
    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            LimitLFT(p=1, q=1, r=1, t=1, tau=5)

    def test_rejects_points_outside_the_positive_region(self):
        lft, _ = rho_limit(STAR, Vec2(6, 13))
        with pytest.raises(ValueError):
            lft.evaluate(Vec2(6, 0))

    def test_reciprocal_orientation(self):
        # (0*x + 1*y) / (0*x + 2*y) = 1/2 at (0, 1), raised to tau.
        for tau_, expected in [(-1, Fraction(2, 1)), (0, Fraction(1)), (1, Fraction(1, 2))]:
            lft = LimitLFT(p=0, q=1, r=0, t=2, tau=tau_)
            assert lft.evaluate(Vec2(0, 1)) == expected, tau_


class TestRhoSpecialAc:
    def test_matches_exact_elasticity_of_the_multiple(self):
        value = rho_special_ac(STAR, Vec2(6, 13), 3)
        assert value == Fraction(7, 5)
        assert value == elasticity3(STAR, Vec2(18, 39))
        assert rho_special_ac(STAR, Vec2(6, 13), 6) == value

    def test_rejects_k_outside_the_residue_class(self):
        with pytest.raises(PeriodicityViolatedError):
            rho_special_ac(STAR, Vec2(6, 13), 2)

    def test_rejects_the_steep_branch(self):
        with pytest.raises(WrongBranchError):
            rho_special_ac(STAR, Vec2(6, 11), 3)

    def test_constant_length_monoid_gives_one(self):
        assert rho_special_ac(SINGLE_LEN, Vec2(1, 3), 2) == Fraction(1)

    def test_argument_validation(self):
        with pytest.raises(ZeroElementError):
            rho_special_ac(STAR, Vec2(0, 0), 3)
        with pytest.raises(ValueError):
            rho_special_ac(STAR, Vec2(6, 13), 0)
        with pytest.raises(NotMemberError):
            rho_special_ac(STAR, Vec2(6, 9), 3)
        with pytest.raises(StarRequiredError):
            rho_special_ac(WORKED, Vec2(199, 120), 110)


class TestRhoSpecialC:
    def test_matches_exact_elasticity_of_the_multiple(self):
        value = rho_special_c(STAR, Vec2(6, 11), 3)
        assert value == Fraction(4, 3)
        assert value == elasticity3(STAR, Vec2(18, 33))
        assert rho_special_c(STAR, Vec2(6, 11), 30) == value

    def test_rejects_k_outside_the_residue_class(self):
        with pytest.raises(PeriodicityViolatedError):
            rho_special_c(STAR, Vec2(6, 11), 4)

    def test_rejects_the_shallow_branch(self):
        with pytest.raises(WrongBranchError):
            rho_special_c(STAR, Vec2(6, 13), 3)

    def test_boundary_slope_is_accepted_by_both(self):
        low = rho_special_ac(STAR, Vec2(3, 6), 3)
        high = rho_special_c(STAR, Vec2(3, 6), 3)
        assert low == high == Fraction(3, 2)


class TestRhoLimit:
    def test_low_slope_limit(self):
        lft, value = rho_limit(STAR, Vec2(6, 13))
        assert value == Fraction(7, 5)
        assert lft.tau == 1
        assert lft.evaluate(Vec2(6, 13)) == value

    def test_high_slope_limit(self):
        _, value = rho_limit(STAR, Vec2(6, 11))
        assert value == Fraction(4, 3)

    def test_boundary_slope_limit(self):
        _, value = rho_limit(STAR, Vec2(3, 6))
        assert value == Fraction(3, 2)

    def test_constant_length_monoid(self):
        _, value = rho_limit(SINGLE_LEN, Vec2(3, 5))
        assert value == Fraction(1)

    def test_argument_validation(self):
        with pytest.raises(ZeroElementError):
            rho_limit(STAR, Vec2(0, 0))
        with pytest.raises(NotMemberError):
            rho_limit(STAR, Vec2(6, 9))
        with pytest.raises(StarRequiredError):
            rho_limit(WORKED, Vec2(199, 120))


class TestConvergence:
    """A member whose elasticity genuinely varies with k before settling."""

    def test_gap_shrinks_toward_the_limit(self):
        _, limit = rho_limit(STAR, Vec2(7, 13))
        assert limit == Fraction(15, 11)
        gap_100 = abs(limit - elasticity3(STAR, Vec2(700, 1300)))
        gap_10k = abs(limit - elasticity3(STAR, Vec2(70000, 130000)))
        assert gap_100 == Fraction(5, 4037)
        assert gap_10k == Fraction(5, 403337)
        assert gap_10k < gap_100
        assert gap_10k < Fraction(1, 1000)

    def test_exact_values_along_small_k(self):
        # Rows are (k, p, q, n, d): rho(k*s) = p/q and the gap n/d, in lowest
        # terms, so an unreduced row (lengths 20/15 at k = 4, gap 0/121 at
        # k = 3) fails the comparison.
        limit, rows = scan_multiples(STAR, Vec2(7, 13), 4)
        assert limit == Fraction(15, 11)
        assert rows == [(1, 5, 4, 5, 44), (2, 5, 4, 5, 44), (3, 15, 11, 0, 1), (4, 4, 3, 1, 33)]


class TestScanMultiples:
    def test_constant_elasticity_member_has_zero_gaps(self):
        limit, rows = scan_multiples(STAR, Vec2(6, 13), 5)
        assert limit == Fraction(7, 5)
        assert rows == [(k, 7, 5, 0, 1) for k in range(1, 6)]

    def test_rejects_bad_k_max(self):
        with pytest.raises(ValueError):
            scan_multiples(STAR, Vec2(6, 13), 0)

    @pytest.mark.parametrize("k_max", [2**63, 10**20, sys.maxsize // 4])
    def test_k_max_no_row_list_can_hold_is_too_large(self, k_max):
        with pytest.raises(InputTooLargeError):
            scan_multiples(STAR, Vec2(6, 13), k_max)

    def test_non_member_rejected(self):
        with pytest.raises(NotMemberError):
            scan_multiples(GAPPY, Vec2(1, 5), 3)

    def test_every_row_matches_elasticity3_on_every_small_star_monoid(self):
        # Past k = P each row comes from its class's step, so three periods
        # and one row more use every step at least twice.
        for a, b, c, d in canonical_triples(6):
            if b * c - a * d != 1:
                continue
            m = CanonicalMonoid3(a, b, c, d, transform=IDENTITY)
            u, v, w = m.gens
            for i, j, n in product(range(3), repeat=3):
                if i or j or n:
                    s = i * u + j * v + n * w
                    k_max = 3 * a * c + 1
                    assert scan_multiples(m, s, k_max)[1] == _elasticity_rows(m, s, k_max), (m, s)

    @pytest.mark.parametrize(
        "m, s",
        [(STAR, Vec2(7, 13)), (TAU_NEG, Vec2(7, 12)), (TAU_NEG, Vec2(9, 14))],
        ids=["star", "tau-neg-low", "tau-neg-high"],
    )
    def test_k_max_around_the_period(self, m, s):
        # P = a*c on a star monoid: below it no class has a step, at P + 1
        # only the class of 1 has one.
        period = m.a * m.c
        for k_max in (period - 1, period, period + 1):
            limit, rows = scan_multiples(m, s, k_max)
            assert limit == rho_limit(m, s)[1]
            assert rows == _elasticity_rows(m, s, k_max), k_max

    # Each corruption of the line fails one check of the row: both ends
    # nonnegative and multiplied back, the start first (alpha < c/g) and the
    # end last (delta < D/g or beta < a/g).  At k = 1, s = (7, 13), the line
    # is (1, 1, 2) + j*(-1, 3, -1) for j = 0, 1.
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            # Start one step before j = 0: alpha0 - c/g < 0 at the j = 0 end only.
            (lambda start, step, count: (_shift(start, step, -1), step, count), r"\(2, -2, 3\)"),
            # One step past J: negative at the j = count - 1 end only.
            (lambda start, step, count: (start, step, count + 1), r"\(-1, 7, 0\)"),
            # delta0 + 1: nonnegative at both ends, but off the target.
            (lambda start, step, count: (_shift(start, (1, 0, 0), 1), step, count), r"\(2, 1, 2\)"),
            # Start one step inward, end kept: two factorizations, but the
            # start has a point before it (alpha = 4 >= c/g = 3).
            (
                lambda start, step, count: (_shift(start, step, 1), step, count - 1),
                r"\(0, 4, 1\) and \(0, 4, 1\)",
            ),
            # count one short, start kept: the end has a point after it.
            (lambda start, step, count: (start, step, count - 1), r"\(1, 1, 2\) and \(1, 1, 2\)"),
            # A step off the line: the end is nonnegative and last, but off
            # the target.
            (lambda start, step, count: (start, (-1, 2, -1), count), r"\(0, 3, 1\)"),
        ],
        ids=["before-j0", "past-J", "off-target", "start-inward", "count-short", "end-off-target"],
    )
    def test_rejects_a_corrupted_line(self, monkeypatch, corrupt, message):
        line = asymptotics._line
        monkeypatch.setattr(asymptotics, "_line", lambda m, x, y: corrupt(*line(m, x, y)))
        with pytest.raises(ValueError, match=message):
            scan_multiples(STAR, Vec2(7, 13), 1)

    @given(data=st.data())
    def test_every_row_matches_elasticity3_and_the_oracle(self, data):
        m = data.draw(star_monoids(max_a=5, max_b=5, max_extra=2))
        s = data.draw(members3(m, max_mult=4))
        _, limit = rho_limit(m, s)
        scan_limit, rows = scan_multiples(m, s, 40)
        assert scan_limit == limit
        assert [row[0] for row in rows] == list(range(1, 41))
        for k, p, q, n, d in rows:
            ks = k * s
            rho = elasticity3(m, ks)
            gap = abs(limit - rho)
            assert (p, q, n, d) == (rho.numerator, rho.denominator, gap.numerator, gap.denominator)
            if k <= 4:
                assert rho == elasticity_oracle(m.gens, ks)


class TestAgainstEachOther:
    @given(data=st.data())
    def test_special_values_equal_exact_and_limit(self, data):
        m = data.draw(star_monoids(max_a=5, max_b=5, max_extra=2))
        s = data.draw(members3(m, max_mult=5))
        _, limit = rho_limit(m, s)
        if s.x * m.b <= s.y * m.a:
            k = m.a * m.c
            special = rho_special_ac(m, s, k)
        else:
            k = m.c
            special = rho_special_c(m, s, k)
        assert special == limit
        assert special == elasticity3(m, k * s)

    @given(data=st.data(), kprime=st.integers(1, 4))
    def test_specials_are_constant_along_the_residue_class(self, data, kprime):
        m = data.draw(star_monoids(max_a=4, max_b=4, max_extra=1))
        s = data.draw(members3(m, max_mult=4))
        if s.x * m.b <= s.y * m.a:
            period = m.a * m.c
            assert rho_special_ac(m, s, kprime * period) == rho_special_ac(m, s, period)
        else:
            period = m.c
            assert rho_special_c(m, s, kprime * period) == rho_special_c(m, s, period)

    @given(data=st.data())
    def test_limit_is_at_least_one(self, data):
        m = data.draw(star_monoids(max_a=6, max_b=6, max_extra=2))
        s = data.draw(members3(m, max_mult=6))
        _, limit = rho_limit(m, s)
        assert limit >= Fraction(1)
