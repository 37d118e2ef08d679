"""Tests for three-generator membership, extremes, and elasticity."""

from fractions import Fraction
from itertools import product
from math import gcd
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from affmon import solve3
from affmon.errors import NotMemberError, ZeroElementError
from affmon.factorization import PHI_OUT_OF_RANGE, X_NOT_REPRESENTABLE, Membership
from affmon.intlin import D2_INCONCLUSIVE, IDENTITY, d2_test
from affmon.monoids import CanonicalMonoid3
from affmon.oracle import elasticity_oracle, enumerate_factorizations
from affmon.rationals import Vec2
from affmon.solve3 import (
    BRANCH_HIGH,
    BRANCH_LOW,
    canonical_rep,
    elasticity3,
    extreme_factorizations,
    member3,
    member3_general,
)

from conftest import (
    CORRUPTED_ENDS,
    canonical_monoids3,
    canonical_triples,
    members3,
    not_line,
    rho_bound,
    shifted,
    star_monoids,
    vecs,
)


# Star monoid (b*c - a*d = 1) used throughout; lengths grow with t.
STAR = CanonicalMonoid3(a=1, b=2, c=3, d=5, transform=IDENTITY)
# The paper's worked example; not a star monoid (b*c - a*d = 67).
WORKED = CanonicalMonoid3(a=11, b=10, c=10, d=3, transform=IDENTITY)
# Star monoid with c < a + 1, so lengths shrink as t grows.
TAU_NEG = CanonicalMonoid3(a=3, b=5, c=2, d=3, transform=IDENTITY)
# Star monoid with c = a + 1: every member has a single factorization length.
SINGLE_LEN = CanonicalMonoid3(a=1, b=2, c=2, d=3, transform=IDENTITY)
# Star monoid where x = 1 is not a combination of a = 2 and c = 3.
GAPPY = CanonicalMonoid3(a=2, b=3, c=3, d=4, transform=IDENTITY)


class TestCanonicalRep:
    def test_pinned_values(self):
        assert canonical_rep(11, 10, 199) == (9, 10)
        assert canonical_rep(1, 3, 6) == (0, 2)
        assert canonical_rep(11, 10, 9) is None
        assert canonical_rep(7, 4, 0) == (0, 0)

    def test_non_coprime_steps(self):
        # g = gcd(2, 4) = 2: alpha stays below c/g = 2 and odd x is out of reach.
        assert canonical_rep(2, 4, 6) == (1, 1)
        assert canonical_rep(2, 4, 8) == (0, 2)
        assert canonical_rep(2, 4, 5) is None
        assert canonical_rep(6, 4, 2) is None  # g divides x, but beta < 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            canonical_rep(0, 3, 1)
        with pytest.raises(ValueError):
            canonical_rep(3, 0, 1)
        with pytest.raises(ValueError):
            canonical_rep(3, 2, -1)

    @given(
        a=st.integers(1, 20),
        c=st.integers(1, 20),
        x=st.integers(0, 400),
    )
    def test_solves_the_equation_when_possible(self, a, c, x):
        rep = canonical_rep(a, c, x)
        solvable = any((x - alpha * a) % c == 0 for alpha in range(x // a + 1))
        if rep is None:
            assert not solvable
        else:
            alpha, beta = rep
            assert 0 <= alpha < c // gcd(a, c)
            assert beta >= 0
            assert alpha * a + beta * c == x


def _shift(start, step, j):
    """The point start + j*step of a line."""
    return tuple(u + j * du for u, du in zip(start, step))


def _step(m):
    """The step (-D/g, c/g, -a/g) along the line, from the generators."""
    g = gcd(m.a, m.c)
    return -(m.b * m.c - m.a * m.d) // g, m.c // g, -m.a // g


def _between(m, ends):
    """The points of a line from its j = 0 end to its j = J end, by the step."""
    start, end, step = ends[:3], ends[3:], _step(m)
    points = [_shift(start, step, j) for j in range((end[1] - start[1]) // step[1] + 1)]
    assert points[-1] == end
    return points


class TestLine:
    """``_line`` returns the two ends (delta0, alpha0, beta0, delta_J,
    alpha_J, beta_J); the factorizations step from one to the other by
    (-D/g, c/g, -a/g)."""

    def test_pinned_line(self):
        # 6 = 0*1 + 2*3 leaves delta0 = 13 - 10 = 3; J = min(2 div 1, 3 div 1) = 2.
        assert solve3._line(STAR, 6, 13) == (3, 0, 2, 1, 6, 0)
        # g = gcd(11, 10) = 1 and D = 67: one point; the length would move
        # by (c - a - D)/g = -68 per step.
        assert solve3._line(WORKED, 199, 120) == (0, 9, 10, 0, 9, 10)
        _, c_g, a_g, d_g, _ = WORKED.line_consts
        assert c_g - a_g - d_g == WORKED.c - WORKED.a - 67

    def test_starts_at_canonical_rep_with_the_same_verdicts(self):
        # _line reads gcd(a, c), the steps and the inverse off the monoid;
        # canonical_rep computes them itself.  Per x: the least y in the cone
        # (delta may be negative there), one y below it, and a y large enough
        # for every representation's delta to be nonnegative.
        for t in canonical_triples(6):
            m = CanonicalMonoid3(*t, transform=IDENTITY)
            a, b, c, d = t
            for x in range(61):
                y_min = -(-x * d // c)
                for y in (y_min - 1, y_min, x * (b + d)):
                    if y < 0:
                        continue
                    line, rep = solve3._line(m, x, y), canonical_rep(a, c, x)
                    if x * d > y * c:
                        assert line.reason == PHI_OUT_OF_RANGE
                    elif rep is None:
                        assert not line.member and line.reason == X_NOT_REPRESENTABLE
                    elif y - rep[0] * b - rep[1] * d < 0:
                        assert not line.member and line.reason is None
                    else:
                        dlt, alpha, beta = line[:3]
                        assert (alpha, beta) == rep
                        assert dlt == y - rep[0] * b - rep[1] * d

    def test_points_are_the_oracle_factorizations(self):
        # Every canonical triple with entries <= 5, minimal or not, at every
        # (x, y) with 0 <= x, y <= 20: the line's points, last first, are
        # the oracle's sorted list, and a non-member gets a verdict instead.
        for t in canonical_triples(5):
            m = CanonicalMonoid3(*t, transform=IDENTITY)
            for x in range(21):
                for y in range(21):
                    facts = enumerate_factorizations(m.gens, Vec2(x, y)).facts
                    line = solve3._line(m, x, y)
                    if isinstance(line, Membership):
                        assert not line.member and line.factorizations == () and facts == ()
                        continue
                    assert [f.mults for f in facts] == _between(m, line)[::-1], (t, x, y)

    @pytest.mark.parametrize("name", CORRUPTED_ENDS)
    def test_each_corrupted_end_fails_one_condition(self, name):
        s, shift, ends, _ = CORRUPTED_ENDS[name]
        assert shifted(solve3._line(STAR, s.x, s.y), shift) == ends
        start, end = ends[:3], ends[3:]

        def back(p):
            u, v, w = p
            return (v * STAR.a + w * STAR.c, u + v * STAR.b + w * STAR.d) == (s.x, s.y)

        # The conditions of solve3._is_line, on STAR where c/g = 3 and a/g = D/g = 1.
        held = [min(start) >= 0, min(end) >= 0, back(start), back(end),
                start[1] < 3, end[0] < 1 or end[2] < 1]
        assert held.count(False) == 1


def _listing(points):
    """The flat listing of a line's points built point by point, j = J down
    to 0: each point's multiplicities and then its length."""
    flat = []
    for point in reversed(points):
        flat += (*point, sum(point))
    return flat


class TestPoints:
    """``_points`` fills its columns from ranges; a listing built point by
    point between the same two ends is the reference."""

    def test_every_small_monoid_and_vector(self):
        # Every canonical triple with entries <= 6, minimal or not, star or
        # not, any g, at every (x, y) with 0 <= x, y <= 30.
        counts, constant_length = set(), 0
        for t in canonical_triples(6):
            m = CanonicalMonoid3(*t, transform=IDENTITY)
            for x in range(31):
                for y in range(31):
                    line, flat = solve3._line(m, x, y), solve3._points(m, x, y)
                    if isinstance(line, Membership):
                        assert flat == line
                        continue
                    points = _between(m, line)
                    assert flat == _listing(points), (t, x, y)
                    counts.add(len(points))
                    constant_length += len(points) > 1 and sum(_step(m)) == 0
        # One-point lines, long lines, and lines along which the length stays put.
        assert {1, 2, 30} <= counts and constant_length

    def test_members_near_ten_to_the_sixty(self):
        # Lines of 1 to 50 points far from the origin, one-point lines among
        # them: J is fixed by beta with delta near 10**60, or by delta with
        # beta near 10**60.
        rng = random.Random(60)
        for a, b, c, d in canonical_triples(6):
            m = CanonicalMonoid3(a, b, c, d, transform=IDENTITY)
            g = gcd(a, c)
            c_g, a_g, d_g = c // g, a // g, (b * c - a * d) // g
            for big_beta, j_max in product((False, True), (0, rng.randrange(1, 50))):
                alpha, far = rng.randrange(c_g), 10**60 + rng.randrange(10**59)
                if big_beta:
                    dlt, beta = j_max * d_g + rng.randrange(d_g), far
                else:
                    dlt, beta = far, j_max * a_g + rng.randrange(a_g)
                x, y = alpha * a + beta * c, dlt + alpha * b + beta * d
                line = solve3._line(m, x, y)
                points = _between(m, line)
                assert line[:3] == (dlt, alpha, beta) and len(points) == j_max + 1
                assert solve3._points(m, x, y) == _listing(points), (a, b, c, d, x, y)


class TestDelta:
    """delta, the forced multiplicity of (0, 1), along the factorization line."""

    def test_worked_example_fails_to_lift(self):
        # 199 = 9*11 + 10*10 is the only representation of x; it leaves
        # delta = -1 at y = 119 and delta = 0 at y = 120.
        res = member3(WORKED, Vec2(199, 119))
        assert not res.member
        assert res.reason is None
        assert member3(WORKED, Vec2(199, 120)).factorization.mults == (0, 9, 10)

    def test_star_fixture_values(self):
        # alpha = 0, 3, 6 leave delta = 3, 2, 1: one less per step (D/g = 1).
        res = member3_general(STAR, Vec2(6, 13))
        assert [f.mults[:2] for f in res.factorizations] == [(1, 6), (2, 3), (3, 0)]


class TestMember3:
    """``member3``, one solver for every canonical three-generator monoid:
    the star fixtures and the non-star worked example."""

    def test_member_gets_canonical_factorization(self):
        res = member3(STAR, Vec2(6, 13))
        assert res.member
        assert res.factorization.mults == (3, 0, 2)

    def test_phi_out_of_range(self):
        res = member3(STAR, Vec2(6, 9))
        assert not res.member
        assert res.reason == PHI_OUT_OF_RANGE

    def test_member_on_the_middle_slope(self):
        res = member3(STAR, Vec2(5, 9))
        assert res.member
        assert res.factorization.mults == (0, 2, 1)

    def test_zero_is_a_member(self):
        res = member3(STAR, Vec2(0, 0))
        assert res.member
        assert res.factorization.mults == (0, 0, 0)

    def test_unrepresentable_first_coordinate(self):
        res = member3(GAPPY, Vec2(1, 2))
        assert not res.member
        assert res.reason == X_NOT_REPRESENTABLE

    def test_non_star_monoid_gets_the_oracle_answer(self):
        res = member3(WORKED, Vec2(199, 120))
        assert res.member
        assert res.factorization.mults == (0, 9, 10)
        assert enumerate_factorizations(WORKED.gens, Vec2(199, 120)).facts == (res.factorization,)


class TestMember3General:
    def test_representable_but_never_lifting(self):
        res = member3_general(WORKED, Vec2(199, 119))
        assert not res.member
        assert res.reason is None
        assert res.factorizations == ()

    def test_the_lattice_screen_misses_this_non_member(self):
        # d2 is unchanged by appending (199, 119), yet the walk rejects it:
        # sound screens can be inconclusive.
        cols = [(g.x, g.y) for g in WORKED.gens]
        assert d2_test(cols, Vec2(199, 119)) == D2_INCONCLUSIVE
        assert not member3_general(WORKED, Vec2(199, 119)).member

    def test_member_with_unique_factorization(self):
        res = member3_general(WORKED, Vec2(199, 120))
        assert res.member
        assert res.factorization.mults == (0, 9, 10)
        assert len(res.factorizations) == 1

    def test_full_factorization_list(self):
        res = member3_general(STAR, Vec2(6, 13))
        assert res.member
        assert [f.mults for f in res.factorizations] == [
            (1, 6, 0),
            (2, 3, 1),
            (3, 0, 2),
        ]
        assert sorted(f.length for f in res.factorizations) == [5, 6, 7]
        assert res.factorization == res.factorizations[0]

    def test_phi_out_of_range_shortcut(self):
        res = member3_general(STAR, Vec2(6, 9))
        assert not res.member
        assert res.reason == PHI_OUT_OF_RANGE

    def test_unrepresentable_first_coordinate(self):
        res = member3_general(GAPPY, Vec2(1, 2))
        assert not res.member
        assert res.reason == X_NOT_REPRESENTABLE

    def test_non_coprime_generator_slopes(self):
        m = CanonicalMonoid3(a=2, b=1, c=4, d=1, transform=IDENTITY)
        odd = member3_general(m, Vec2(3, 5))
        assert not odd.member
        assert odd.reason == X_NOT_REPRESENTABLE
        even = member3_general(m, Vec2(6, 3))
        assert even.member
        assert [f.mults for f in even.factorizations] == [(0, 3, 0), (1, 1, 1)]

    @pytest.mark.parametrize("name", CORRUPTED_ENDS)
    def test_rejects_a_corrupted_line(self, monkeypatch, name):
        s, shift, ends, _ = CORRUPTED_ENDS[name]
        line = solve3._line
        monkeypatch.setattr(solve3, "_line", lambda m, x, y: shifted(line(m, x, y), shift))
        with pytest.raises(ValueError, match=not_line(ends, s.x, s.y)):
            member3_general(STAR, s)

    @given(m=star_monoids(max_a=5, max_b=5, max_extra=2), s=vecs(max_coord=35))
    def test_matches_exhaustive_search(self, m, s):
        res = member3_general(m, s)
        facts = enumerate_factorizations(m.gens, s)
        assert res.member == facts.member
        assert res.factorizations == facts.facts

    @given(m=star_monoids(max_a=5, max_b=5, max_extra=2), s=vecs(max_coord=35))
    def test_star_and_general_verdicts_agree(self, m, s):
        quick = member3(m, s)
        full = member3_general(m, s)
        assert quick.member == full.member
        if quick.member:
            assert quick.factorization in full.factorizations


class TestExtremeFactorizations:
    def test_low_slope_branch(self):
        ext = extreme_factorizations(STAR, Vec2(6, 13))
        assert ext.branch == BRANCH_LOW
        assert ext.t_max == 2
        assert ext.fact_t0.mults == (3, 0, 2)
        assert ext.fact_tmax.mults == (1, 6, 0)
        assert (ext.len_t0, ext.len_tmax) == (5, 7)

    def test_high_slope_branch(self):
        ext = extreme_factorizations(STAR, Vec2(6, 11))
        assert ext.branch == BRANCH_HIGH
        assert ext.t_max == 1
        assert ext.fact_t0.mults == (1, 0, 2)
        assert ext.fact_tmax.mults == (0, 3, 1)
        assert (ext.len_t0, ext.len_tmax) == (3, 4)

    def test_equal_slope_boundary(self):
        ext = extreme_factorizations(STAR, Vec2(3, 6))
        assert ext.branch == BRANCH_LOW
        assert ext.t_max == 1
        assert (ext.len_t0, ext.len_tmax) == (2, 3)

    def test_constant_length_monoid(self):
        ext = extreme_factorizations(
            CanonicalMonoid3(a=1, b=1, c=2, d=1, transform=IDENTITY), Vec2(3, 4)
        )
        assert ext.t_max == 1
        assert ext.len_t0 == ext.len_tmax == 4

    def test_non_member_rejected(self):
        with pytest.raises(NotMemberError):
            extreme_factorizations(STAR, Vec2(6, 9))

    def test_non_star_monoid_gets_the_oracle_answer(self):
        ext = extreme_factorizations(WORKED, Vec2(199, 120))
        assert ext.branch == BRANCH_HIGH
        assert ext.t_max == 0
        assert ext.fact_t0 == ext.fact_tmax
        assert enumerate_factorizations(WORKED.gens, Vec2(199, 120)).facts == (ext.fact_t0,)

    @given(data=st.data())
    def test_lengths_form_an_arithmetic_progression(self, data):
        m = data.draw(star_monoids(max_a=5, max_b=5, max_extra=2))
        s = data.draw(members3(m, max_mult=6))
        ext = extreme_factorizations(m, s)
        step = m.c - m.a - 1
        expected = sorted(ext.len_t0 + t * step for t in range(ext.t_max + 1))
        res = member3_general(m, s)
        assert sorted(f.length for f in res.factorizations) == expected
        assert ext.fact_t0 in res.factorizations
        assert ext.fact_tmax in res.factorizations
        assert len(res.factorizations) == ext.t_max + 1


class TestElasticity3:
    def test_pinned_values(self):
        assert elasticity3(STAR, Vec2(6, 13)) == Fraction(7, 5)
        assert elasticity3(STAR, Vec2(6, 11)) == Fraction(4, 3)
        assert elasticity3(STAR, Vec2(3, 6)) == Fraction(3, 2)

    def test_lengths_can_shrink_with_t(self):
        ext = extreme_factorizations(TAU_NEG, Vec2(6, 13))
        assert (ext.len_t0, ext.len_tmax) == (7, 5)
        assert elasticity3(TAU_NEG, Vec2(6, 13)) == Fraction(7, 5)

    def test_constant_length_monoid_is_fully_elastic_free(self):
        assert elasticity3(SINGLE_LEN, Vec2(3, 5)) == Fraction(1)

    def test_zero_element_rejected(self):
        with pytest.raises(ZeroElementError):
            elasticity3(STAR, Vec2(0, 0))

    def test_non_member_rejected(self):
        with pytest.raises(NotMemberError):
            elasticity3(STAR, Vec2(6, 9))

    def test_non_star_monoid_gets_the_oracle_answer(self):
        # The paper's worked example: (199,120) has the single factorization
        # (0,9,10), and (199,119) is representable but not a member.
        assert elasticity3(WORKED, Vec2(199, 120)) == Fraction(1)
        assert elasticity_oracle(WORKED.gens, Vec2(199, 120)) == Fraction(1)
        with pytest.raises(NotMemberError):
            elasticity3(WORKED, Vec2(199, 119))

    @given(data=st.data())
    def test_matches_exhaustive_search(self, data):
        m = data.draw(star_monoids(max_a=5, max_b=5, max_extra=2))
        s = data.draw(members3(m, max_mult=6))
        assert elasticity3(m, s) == elasticity_oracle(m.gens, s)

    @given(data=st.data())
    def test_at_least_one(self, data):
        m = data.draw(star_monoids(max_a=6, max_b=6, max_extra=2))
        s = data.draw(members3(m, max_mult=8))
        assert elasticity3(m, s) >= Fraction(1)

    @given(data=st.data())
    def test_small_beta_forces_unique_length_on_the_low_branch(self, data):
        m = data.draw(star_monoids(max_a=6, max_b=6, max_extra=2))
        s = data.draw(members3(m, max_mult=8))
        ext = extreme_factorizations(m, s)
        beta = ext.fact_t0.mults[2]
        if ext.branch == BRANCH_LOW and beta < m.a:
            assert ext.t_max == 0
            assert elasticity3(m, s) == Fraction(1)

    @given(data=st.data())
    def test_members_closed_under_addition(self, data):
        m = data.draw(star_monoids(max_a=6, max_b=6, max_extra=2))
        s = data.draw(members3(m, max_mult=6))
        t = data.draw(members3(m, max_mult=6))
        assert member3(m, s + t).member


class TestEveryMonoidAgainstTheOracle:
    """The line solver on star and non-star monoids alike, g > 1 included."""

    @given(m=canonical_monoids3(), s=vecs(max_coord=30))
    def test_member3_verdict_and_witness(self, m, s):
        res = member3(m, s)
        facts = enumerate_factorizations(m.gens, s)
        assert res.member == facts.member
        if res.member:
            # The witness is the j = 0 end: the fewest copies of (a, b).
            assert res.factorization in facts.facts
            assert res.factorization.mults[1] == min(f.mults[1] for f in facts.facts)

    @given(m=canonical_monoids3(), s=vecs(max_coord=30))
    def test_member3_general_lists_every_factorization_in_order(self, m, s):
        res = member3_general(m, s)
        facts = enumerate_factorizations(m.gens, s)
        assert res.member == facts.member
        assert res.factorizations == facts.facts

    @given(data=st.data())
    def test_extremes_and_elasticity(self, data):
        m = data.draw(canonical_monoids3())
        s = data.draw(members3(m, max_mult=6))
        facts = enumerate_factorizations(m.gens, s)
        ext = extreme_factorizations(m, s)
        assert ext.t_max == len(facts.facts) - 1
        assert sorted((ext.len_t0, ext.len_tmax)) == [facts.lengths[0], facts.lengths[-1]]
        assert elasticity3(m, s) == elasticity_oracle(m.gens, s)


class TestElasticityBound:
    """Every elasticity lies in [1, rho(S)] (``conftest.rho_bound``)."""

    def test_every_small_member_of_every_small_monoid(self):
        # Every member with coordinates < 25 of the 135 minimally generated
        # canonical monoids with entries <= 5, star or not.  The largest
        # elasticity reaches rho(S) in 119 of the 135 monoids.
        monoids = [
            CanonicalMonoid3(*t, transform=IDENTITY) for t in canonical_triples(5) if t[0] % t[2]
        ]
        members = reached = 0
        for m in monoids:
            bound, top = rho_bound(m), Fraction(1)
            for x, y in product(range(25), repeat=2):
                s = Vec2(x, y)
                if s.is_zero or not member3(m, s).member:
                    continue
                rho = elasticity3(m, s)
                assert 1 <= rho <= bound, (m, s)
                assert elasticity_oracle(m.gens, s) <= bound, (m, s)
                top = max(top, rho)
                members += 1
            reached += top == bound
        assert (len(monoids), members, reached) == (135, 43531, 119)
