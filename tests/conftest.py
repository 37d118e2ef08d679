"""Shared hypothesis strategies for the test suite."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import settings, strategies as st

from affmon import CanonicalMonoid3, Vec2
from affmon.intlin import IDENTITY

settings.register_profile("affmon", deadline=None, max_examples=100)
settings.load_profile("affmon")


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
