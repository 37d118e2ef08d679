"""Shared hypothesis strategies for the test suite."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
import re

from hypothesis import settings, strategies as st

from affmon import CanonicalMonoid3, Vec2
from affmon.intlin import IDENTITY

settings.register_profile("affmon", deadline=None, max_examples=100)
settings.load_profile("affmon")


# Corrupted ends of the factorization line on <(0,1), (1,2), (3,5)>, where
# P = a*c = 3 and the step is (-1, 3, -1).  Each entry is (s, shift, ends at s,
# ends at P*s): a reader that gets _line's ends plus shift at s must refuse the
# ends at s, and a scan past k = P that reads them plus shift at P*s, the line
# every class steps by, must refuse that line before any class uses it.  Each
# entry fails exactly one condition of the ``solve3.Line`` check at s.  At
# s = (6, 13) the line is (3, 0, 2) to (1, 6, 0), at 3*s (9, 0, 6) to
# (3, 18, 0); at s = (7, 13) it is (1, 1, 2) to (0, 4, 1), at 3*s (4, 0, 7) to
# (0, 12, 3).
CORRUPTED_ENDS = {
    # One step before j = 0: alpha0 - c/g < 0.
    "start-negative": (Vec2(6, 13), (1, -3, 1, 0, 0, 0),
                       (4, -3, 3, 1, 6, 0), (10, -3, 7, 3, 18, 0)),
    # One step past J: beta_J - a/g < 0.
    "end-negative": (Vec2(6, 13), (0, 0, 0, -1, 3, -1),
                     (3, 0, 2, 0, 9, -1), (9, 0, 6, 2, 21, -1)),
    # delta0 + 1: nonnegative and first, but off the target.
    "start-off-target": (Vec2(6, 13), (1, 0, 0, 0, 0, 0),
                         (4, 0, 2, 1, 6, 0), (10, 0, 6, 3, 18, 0)),
    # delta_J + 1: nonnegative and last (beta_J = 0), but off the target.
    "end-off-target": (Vec2(6, 13), (0, 0, 0, 1, 0, 0),
                       (3, 0, 2, 2, 6, 0), (9, 0, 6, 4, 18, 0)),
    # One step inward from alpha0 = 0: alpha0 = c/g exactly.
    "start-alpha-is-c-over-g": (Vec2(6, 13), (-1, 3, -1, 0, 0, 0),
                                (2, 3, 1, 1, 6, 0), (8, 3, 5, 3, 18, 0)),
    # One step inward from beta_J = 0: beta_J = a/g exactly, delta_J >= D/g.
    "end-beta-is-a-over-g": (Vec2(6, 13), (0, 0, 0, 1, -3, 1),
                             (3, 0, 2, 2, 3, 1), (9, 0, 6, 4, 15, 1)),
    # One step inward from delta_J = 0: delta_J = D/g exactly, beta_J >= a/g.
    "end-delta-is-d-over-g": (Vec2(7, 13), (0, 0, 0, 1, -3, 1),
                              (1, 1, 2, 1, 1, 2), (4, 0, 7, 1, 9, 4)),
}


def shifted(ends, shift, times=1):
    """ends + times*shift, entry by entry."""
    return tuple(e + times * d for e, d in zip(ends, shift))


def not_line(ends, x: int, y: int) -> str:
    """The pattern of the error for ends that are not the line of (x, y)."""
    return re.escape(f"{ends[:3]} and {ends[3:]} are not the ends of the "
                     f"factorization line of ({x}, {y})")


def vecs(max_coord: int = 60) -> st.SearchStrategy[Vec2]:
    return st.tuples(
        st.integers(0, max_coord), st.integers(0, max_coord)
    ).map(lambda p: Vec2(*p))


def nonzero_vecs(max_coord: int = 60) -> st.SearchStrategy[Vec2]:
    return vecs(max_coord).filter(lambda v: not v.is_zero)


def phi_minimal_vecs(max_coord: int = 40) -> st.SearchStrategy[Vec2]:
    return st.tuples(
        st.integers(0, max_coord), st.integers(0, max_coord)
    ).filter(lambda p: gcd(p[0], p[1]) == 1).map(lambda p: Vec2(*p))


@st.composite
def star_monoids(draw, max_a: int = 8, max_b: int = 8, max_extra: int = 3) -> CanonicalMonoid3:
    """Minimally generated canonical star monoids: b*c - a*d = 1.

    c is forced to the inverse of b modulo a (shifted by multiples of a),
    and d follows; the slope order then holds automatically.
    """
    a = draw(st.integers(1, max_a))
    b = draw(st.integers(1, max_b).filter(lambda v: gcd(a, v) == 1))
    c0 = pow(b, -1, a) if a > 1 else 1
    c = c0 + draw(st.integers(0, max_extra)) * a
    if a % c == 0:
        # c | a makes the middle generator redundant; the next residue
        # representative is > a, hence never a divisor of it.
        c += a
    d = (b * c - 1) // a
    return CanonicalMonoid3(a=a, b=b, c=c, d=d, transform=IDENTITY)


def canonical_triples(max_entry: int) -> list[tuple[int, int, int, int]]:
    """Every canonical (a, b, c, d) with entries <= max_entry.

    Phi-minimal generators in strictly increasing slope order, so
    D = b*c - a*d >= 1; star and non-star alike, any g = gcd(a, c), and
    including the non-minimal ones (c | a).
    """
    return [
        (a, b, c, d)
        for a in range(1, max_entry + 1)
        for b in range(max_entry + 1)
        for c in range(1, max_entry + 1)
        for d in range(max_entry + 1)
        if gcd(a, b) == 1 and gcd(c, d) == 1 and a * d < b * c
    ]


def rho_bound(m: CanonicalMonoid3) -> Fraction:
    """rho(S) = max(c, a + D) / min(c, a + D) with D = b*c - a*d.

    c and a + D are the lengths of the two sides of the kernel step
    (c/g)*(a, b) = (D/g)*(0, 1) + (a/g)*(c, d), g = gcd(a, c), so every
    elasticity of a nonzero member lies in [1, rho(S)].  Computed from the
    generators alone, with neither the solvers' line nor the oracle.
    """
    D = m.b * m.c - m.a * m.d
    return Fraction(max(m.c, m.a + D), min(m.c, m.a + D))


def canonical_monoids3(max_entry: int = 6) -> st.SearchStrategy[CanonicalMonoid3]:
    """Minimally generated canonical three-generator monoids, star or not,
    including g = gcd(a, c) > 1."""
    minimal = [t for t in canonical_triples(max_entry) if t[0] % t[2]]
    return st.sampled_from(minimal).map(lambda t: CanonicalMonoid3(*t, transform=IDENTITY))


@st.composite
def members3(draw, monoid: CanonicalMonoid3, max_mult: int = 12) -> Vec2:
    """Nonzero members of a three-generator monoid, built as explicit combinations."""
    i = draw(st.integers(0, max_mult))
    j = draw(st.integers(0, max_mult))
    k = draw(st.integers(0, max_mult))
    if i == 0 and j == 0 and k == 0:
        i = 1
    u, v, w = monoid.gens
    return i * u + j * v + k * w
