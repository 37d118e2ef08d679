"""Tests for the periodic elasticity formulas, the limit LFT, and scans."""

import sys
from fractions import Fraction
from itertools import product
from math import lcm

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
from affmon.solve3 import _line, elasticity3, member3

from conftest import (
    CORRUPTED_ENDS,
    canonical_triples,
    members3,
    not_line,
    rho_bound,
    shifted,
    star_monoids,
)


STAR = CanonicalMonoid3(a=1, b=2, c=3, d=5, transform=IDENTITY)
WORKED = CanonicalMonoid3(a=11, b=10, c=10, d=3, transform=IDENTITY)
TAU_NEG = CanonicalMonoid3(a=3, b=5, c=2, d=3, transform=IDENTITY)
SINGLE_LEN = CanonicalMonoid3(a=1, b=2, c=2, d=3, transform=IDENTITY)
# Star monoid where x = 1 is not a combination of a = 2 and c = 3.
GAPPY = CanonicalMonoid3(a=2, b=3, c=3, d=4, transform=IDENTITY)
# Star monoid with P = a*c = 10.
STAR2 = CanonicalMonoid3(a=2, b=1, c=5, d=2, transform=IDENTITY)


def _elasticity_rows(m, s, k_max):
    """Scan rows (k, p, q, n, d) from ``elasticity3`` of each multiple."""
    _, limit = rho_limit(m, s)
    rows = []
    for k in range(1, k_max + 1):
        rho = elasticity3(m, k * s)
        gap = abs(limit - rho)
        rows.append((k, rho.numerator, rho.denominator, gap.numerator, gap.denominator))
    return rows


def _wrong_period_scans():
    """Scan each nonzero member with multiplicities <= 2 of every star
    monoid with entries <= 6 up to k = 3*c*(a + 1) + 1, three periods of
    P = c*(a + 1) and one row more; return how many scans raise
    ``ValueError``, after asserting that each of the others gives the rows
    of ``elasticity3``."""
    raised = 0
    for a, b, c, d in canonical_triples(6):
        if b * c - a * d != 1:
            continue
        m = CanonicalMonoid3(a, b, c, d, transform=IDENTITY)
        u, v, w = m.gens
        for i, j, n in product(range(3), repeat=3):
            if i or j or n:
                s = i * u + j * v + n * w
                k_max = 3 * c * (a + 1) + 1
                try:
                    rows = scan_multiples(m, s, k_max)[1]
                except ValueError:
                    raised += 1
                    continue
                assert rows == _elasticity_rows(m, s, k_max), (m, s)
    return raised


class TestTau:
    def test_signs(self):
        assert tau(STAR) == 1
        assert tau(SINGLE_LEN) == 0
        assert tau(TAU_NEG) == -1

    def test_sign_is_that_of_c_minus_a_minus_d(self):
        # c - a - 1 > 0 on both, but D = 4 and D = 3 make c - a - D negative
        # and 0: lengths fall along the line of (1, 4) and are constant on it.
        falling = CanonicalMonoid3(a=1, b=2, c=3, d=2, transform=IDENTITY)
        constant = CanonicalMonoid3(a=1, b=1, c=4, d=1, transform=IDENTITY)
        assert tau(falling) == -1
        assert tau(constant) == 0
        # P = 12 on the falling one: the limit is rho(12*(1, 4)).
        limit = rho_limit(falling, Vec2(1, 4))[1]
        assert limit == elasticity3(falling, Vec2(12, 48)) == Fraction(11, 9)
        assert rho_limit(constant, Vec2(5, 9))[1] == Fraction(1)


class TestLimitLFT:
    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            LimitLFT(p=1, q=1, r=1, t=1, tau=5)

    def test_rejects_points_outside_the_positive_region(self):
        lft, _ = rho_limit(STAR, Vec2(6, 13))
        with pytest.raises(ValueError):
            lft.evaluate(Vec2(6, 0))

    @pytest.mark.parametrize("tau_", [-1, 0, 1])
    @pytest.mark.parametrize(
        "coeffs", [(1, -1, 1, 1), (1, 1, 1, -1)], ids=["numerator-zero", "denominator-zero"]
    )
    def test_rejects_a_form_that_is_exactly_zero(self, coeffs, tau_):
        # At (2, 2) one form is 2 - 2 = 0 and the other 4: zero is not positive.
        with pytest.raises(ValueError, match="not positive"):
            LimitLFT(*coeffs, tau_).evaluate(Vec2(2, 2))

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
        # On slope a/b both forms give 3/2; the low-slope one is returned.
        lft, value = rho_limit(STAR, Vec2(3, 6))
        assert value == Fraction(3, 2)
        assert lft == LimitLFT(p=-3, q=3, r=-4, t=3, tau=1)

    def test_constant_length_monoid(self):
        _, value = rho_limit(SINGLE_LEN, Vec2(3, 5))
        assert value == Fraction(1)

    def test_argument_validation(self):
        with pytest.raises(ZeroElementError):
            rho_limit(STAR, Vec2(0, 0))
        with pytest.raises(NotMemberError):
            rho_limit(STAR, Vec2(6, 9))

    def test_a_non_star_monoid_gets_the_checked_limit(self):
        # D = 67 and P = 7,370: the high-slope form at D = 67, equal to
        # rho(P*s), which rho_limit checks, and to rho(7*P*s).
        s = Vec2(199, 120)
        lft, value = rho_limit(WORKED, s)
        assert lft == LimitLFT(p=70, q=-10, r=-134, t=670, tau=-1)
        assert value == Fraction(401, 95)
        assert value == elasticity3(WORKED, 7370 * s) == elasticity3(WORKED, 7 * 7370 * s)

    @pytest.mark.parametrize("coeff", ["p", "q", "r", "t"])
    @pytest.mark.parametrize(
        "m, s", [(STAR, Vec2(6, 13)), (WORKED, Vec2(199, 120))], ids=["low", "high"]
    )
    def test_a_form_one_coefficient_off_is_refused(self, monkeypatch, coeff, m, s):
        lft = asymptotics._lft

        def off(m, low):
            f = lft(m, low)
            kw = {"p": f.p, "q": f.q, "r": f.r, "t": f.t, "tau": f.tau}
            kw[coeff] += 1
            return LimitLFT(**kw)

        monkeypatch.setattr(asymptotics, "_lft", off)
        with pytest.raises(ValueError, match="not rho"):
            rho_limit(m, s)
        with pytest.raises(ValueError, match="not rho"):
            scan_multiples(m, s, 1)


# The 179 minimally generated canonical non-star triples with entries <= 6,
# 24 of them with g = gcd(a, c) > 1.
NON_STAR = [CanonicalMonoid3(*t, transform=IDENTITY) for t in canonical_triples(6)
            if t[0] % t[2] and t[1] * t[2] - t[0] * t[3] != 1]


def _period(m):
    """P = (c/g)*lcm(a/g, D/g)."""
    _, c_g, a_g, d_g, _ = m.line_consts
    return c_g * lcm(a_g, d_g)


def _members(m):
    """The 26 nonzero members with multiplicities <= 2."""
    u, v, w = m.gens
    return [i * u + j * v + n * w for i, j, n in product(range(3), repeat=3) if i or j or n]


class TestGeneralLimit:
    """The limit without the star condition: rho(P*s), checked three ways."""

    def test_the_limit_is_rho_at_p_and_seven_p_times_s(self):
        members = with_g = 0
        for m in NON_STAR:
            period = _period(m)
            for s in _members(m):
                limit = rho_limit(m, s)[1]
                assert limit == elasticity3(m, period * s) == elasticity3(m, 7 * period * s), (m, s)
                assert 1 <= limit <= rho_bound(m), (m, s)
                members += 1
                with_g += m.line_consts[0] > 1
        assert (len(NON_STAR), members, with_g) == (179, 4654, 624)

    def test_the_limit_is_the_oracle_rho_where_p_times_s_is_small(self):
        checked = with_g = 0
        for m in NON_STAR:
            period = _period(m)
            for s in _members(m):
                if period * (s.x + s.y) <= 60:
                    assert rho_limit(m, s)[1] == elasticity_oracle(m.gens, period * s), (m, s)
                    checked += 1
                    with_g += m.line_consts[0] > 1
        assert (checked, with_g) == (392, 157)

    def test_every_row_matches_elasticity3_past_three_periods(self):
        # As on the star monoids: every class steps at least twice, and has
        # gap 0 on every row or on none.  P <= 60 keeps the rows few.
        scanned = mixed = 0
        for m in NON_STAR:
            period = _period(m)
            if period > 60:
                continue
            for s in _members(m):
                rows = scan_multiples(m, s, 3 * period + 1)[1]
                assert rows == _elasticity_rows(m, s, 3 * period + 1), (m, s)
                zero = [{row[3] == 0 for row in rows[r::period]} for r in range(period)]
                assert all(len(z) == 1 for z in zero), (m, s)
                mixed += {True} in zero and {False} in zero
            scanned += 1
        assert scanned == 98
        assert mixed > 0


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

    # At sys.maxsize // 10 the list of five ints a row has an index-sized
    # length, so it fails by MemoryError, not OverflowError.
    @pytest.mark.parametrize("k_max", [2**63, 10**20, sys.maxsize // 4, sys.maxsize // 10])
    def test_k_max_no_row_list_can_hold_is_too_large(self, k_max):
        with pytest.raises(InputTooLargeError):
            scan_multiples(STAR, Vec2(6, 13), k_max)

    def test_non_member_rejected(self):
        with pytest.raises(NotMemberError):
            scan_multiples(GAPPY, Vec2(1, 5), 3)

    def test_every_row_matches_elasticity3_on_every_small_star_monoid(self):
        # Past k = P each row comes from the step, so three periods and one
        # row more use it at least twice on every class.  Each class r has
        # gap 0 on every row or on none, and the scan fills the ones with
        # gap 0 from their first row; both kinds occur.
        mixed = 0
        for a, b, c, d in canonical_triples(6):
            if b * c - a * d != 1:
                continue
            m = CanonicalMonoid3(a, b, c, d, transform=IDENTITY)
            period = a * c
            u, v, w = m.gens
            for i, j, n in product(range(3), repeat=3):
                if i or j or n:
                    s = i * u + j * v + n * w
                    rows = scan_multiples(m, s, 3 * period + 1)[1]
                    assert rows == _elasticity_rows(m, s, 3 * period + 1), (m, s)
                    zero = [{row[3] == 0 for row in rows[r::period]} for r in range(period)]
                    assert all(len(z) == 1 for z in zero), (m, s)
                    mixed += {True} in zero and {False} in zero
        assert mixed > 0

    def test_the_line_of_a_multiple_is_additive_along_its_class(self):
        # The line of (r + t*P)*s is the line of r*s plus t times the line of
        # P*s: star and non-star (``_line`` has no star guard), every class
        # r <= P of seven members per monoid, t up to 10**30.
        classes = 0
        for a, b, c, d in canonical_triples(6):
            m = CanonicalMonoid3(a, b, c, d, transform=IDENTITY)
            _, c_g, a_g, d_g, _ = m.line_consts
            period = c_g * lcm(a_g, d_g)
            u, v, w = m.gens
            for i, j, n in product(range(2), repeat=3):
                if not (i or j or n):
                    continue
                s = i * u + j * v + n * w
                step = _line(m, period * s.x, period * s.y)
                for r in range(1, period + 1):
                    first = _line(m, r * s.x, r * s.y)
                    for t in (1, 2, 10**30):
                        k = r + t * period
                        assert _line(m, k * s.x, k * s.y) == shifted(first, step, t), (m, s, k)
                    classes += 1
        assert classes == 7 * 17643  # seven members, and P summed over the triples

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

    @pytest.mark.parametrize("name", CORRUPTED_ENDS)
    def test_rejects_a_corrupted_line(self, monkeypatch, name):
        s, shift, ends, _ = CORRUPTED_ENDS[name]
        line = asymptotics._line
        monkeypatch.setattr(asymptotics, "_line", lambda m, x, y: shifted(line(m, x, y), shift))
        with pytest.raises(ValueError, match=not_line(ends, s.x, s.y)):
            scan_multiples(STAR, s, 1)

    # Past k = P every class steps by the line of P*s, which the scan checks
    # before any class uses it.
    @pytest.mark.parametrize("name", CORRUPTED_ENDS)
    def test_rejects_a_class_step_read_from_a_corrupted_line(self, monkeypatch, name):
        s, shift, _, ends = CORRUPTED_ENDS[name]
        period, line = STAR.a * STAR.c, asymptotics._line

        def corrupted(m, x, y):
            read = line(m, x, y)
            return shifted(read, shift) if x == period * s.x else read

        monkeypatch.setattr(asymptotics, "_line", corrupted)
        with pytest.raises(ValueError, match=not_line(ends, period * s.x, period * s.y)):
            scan_multiples(STAR, s, 2 * period + 1)

    def test_a_wrong_period_raises_or_gives_the_true_rows(self, monkeypatch):
        # With P one too large in its lcm factor, the ends are not affine on
        # every class: the limit's value fails its check at P*s, or a class
        # fails at its last row, or, passing at its first and last, is right
        # on every row between.
        monkeypatch.setattr(asymptotics, "lcm", lambda *args: lcm(*args) + 1)
        assert _wrong_period_scans() > 0

    def test_a_step_from_a_wrong_period_raises_at_a_last_row(self, monkeypatch):
        # Only the scan gets the wrong P and the line of P*s as its step; the
        # limit keeps its checked value, so a class that the step gets wrong
        # can be refused only by its last row's check.
        limit = asymptotics._limit

        def wrong(m, s):
            lft, value, _, first, _ = limit(m, s)
            period = m.c * (m.a + 1)
            return lft, value, period, first, _line(m, period * s.x, period * s.y)

        monkeypatch.setattr(asymptotics, "_limit", wrong)
        assert _wrong_period_scans() > 0

    @pytest.mark.parametrize(
        "m, mults",
        [(STAR, (10**29 + 3, 10**29 + 7, 2 * 10**29 + 1)), (STAR, (10**30 - 1, 1, 0)),
         (TAU_NEG, (10**29 + 1, 10**29 + 2, 10**29 + 3)), (TAU_NEG, (10**30 - 1, 0, 10**29 + 9)),
         (STAR2, (7, 10**29 + 1, 10**29 + 5)), (STAR2, (10**30 - 7, 3, 10**29))],
    )
    def test_thirty_digit_members_past_five_periods(self, m, mults):
        s = mults[0] * Vec2(0, 1) + mults[1] * Vec2(m.a, m.b) + mults[2] * Vec2(m.c, m.d)
        k_max = 5 * m.a * m.c + 2
        assert scan_multiples(m, s, k_max)[1] == _elasticity_rows(m, s, k_max)

    @pytest.mark.parametrize(
        "m, s", [(STAR, Vec2(7, 13)), (TAU_NEG, Vec2(9, 14))], ids=["star", "tau-neg"]
    )
    def test_reads_the_line_once_per_row_up_to_p_and_once_at_p_times_s(self, monkeypatch, m, s):
        period, line = m.a * m.c, asymptotics._line
        calls = []
        monkeypatch.setattr(asymptotics, "_line", lambda *args: calls.append(args[1]) or line(*args))
        for k_max in (1, period, period + 1, 2 * period, 10 * period):
            calls.clear()
            scan_multiples(m, s, k_max)
            # The limit reads s, the first row, and P*s, the step and the
            # first row of the class of P, so P*s is read even below k = P.
            assert len(calls) == min(period, k_max) + (k_max < period), k_max
            assert calls.count(s.x) == 1, k_max
            assert calls.count(period * s.x) == 1, k_max

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
    @pytest.mark.parametrize("b", [2, 3])
    def test_specials_at_k_one(self, b):
        # <(0,1), (1,b), (1,b-1)> is star with a = c = 1, so k = 1 lies in
        # both residue classes.  It is not minimally generated, which
        # rho_special_* does not check, so k = 1 is reachable.
        m = CanonicalMonoid3(a=1, b=b, c=1, d=b - 1, transform=IDENTITY)
        low, high = Vec2(2, 2 * b + 1), Vec2(2, 2 * b - 1)
        assert rho_special_ac(m, low, 1) == elasticity_oracle(m.gens, low) == Fraction(5, 3)
        assert rho_special_c(m, high, 1) == elasticity_oracle(m.gens, high) == Fraction(3, 2)

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


def test_limits_and_scan_rows_stay_within_the_elasticity_bound():
    # rho_limit and each row of a 12-row scan, for every member with
    # coordinates < 25 of the 20 minimally generated canonical star monoids
    # with entries <= 5: none exceeds rho(S) (``conftest.rho_bound``).
    limits = 0
    for t in canonical_triples(5):
        m = CanonicalMonoid3(*t, transform=IDENTITY)
        if not m.star or m.a % m.c == 0:
            continue
        bound = rho_bound(m)
        for x, y in product(range(25), repeat=2):
            s = Vec2(x, y)
            if s.is_zero or not member3(m, s).member:
                continue
            assert 1 <= rho_limit(m, s)[1] <= bound, (m, s)
            assert all(1 <= Fraction(p, q) <= bound for _, p, q, _, _ in scan_multiples(m, s, 12)[1])
            limits += 1
    assert limits == 6862
