"""Canonical form for affine submonoids of N0^2 with 2 or 3 generators.

A monoid is described by a list of generators.  Canonicalization sorts them
by slope once and applies a determinant-one change of coordinates, built
from the Bezout row of the generator of least slope, that sends that
generator to (0, 1) and the others into N0^2.  A determinant of +1 keeps
every cross product x1*y2 - x2*y1, so the images stay in strictly
increasing slope order and need no second sort.  Because the transform is
unimodular, all membership and factorization questions can be answered in
the canonical coordinates: multiplicity vectors are untouched, only the
query vector is mapped through the transform.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from math import gcd

from .errors import DuplicateGeneratorError, NotPhiMinimalError, ZeroGeneratorError
from .intlin import UniMat2, ext_gcd
from .rationals import Vec2, _Frozen, is_phi_minimal, slope_compare

__all__ = [
    "CanonicalMonoid2",
    "CanonicalMonoid3",
    "Monoid",
    "canonicalize",
    "canonical_coords",
    "validate_minimal_generation",
]


class CanonicalMonoid2(_Frozen):
    """Monoid generated by (0, 1) and (a, b), in canonical coordinates."""

    _fields = ("a", "b", "transform")

    def __init__(self, a: int, b: int, transform: UniMat2) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "transform", transform)
        self.__post_init__()
        # Not a field, so equality and hashing ignore it.
        object.__setattr__(self, "gens", (Vec2(0, 1), Vec2(a, b)))

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 0:
            raise ValueError("canonical second generator needs a >= 1, b >= 0")
        if gcd(self.a, self.b) != 1:
            raise NotPhiMinimalError(f"({self.a}, {self.b}) has coordinate gcd > 1")


class CanonicalMonoid3(_Frozen):
    """Monoid generated by (0, 1), (a, b), (c, d), in canonical coordinates.

    Slope order is part of the invariant: 0 < a/b < c/d (compared by
    cross-multiplication, so d = 0 meaning infinite slope is fine).  Its
    constructor also sets ``gens`` and ``line_consts``, (g, c/g, a/g, D/g,
    (a/g)^-1 mod c/g) for g = gcd(a, c) and D = b*c - a*d, the constants of
    ``solve3``'s line; neither is a field, so equality and hashing ignore both.
    """

    _fields = ("a", "b", "c", "d", "transform")

    def __init__(self, a: int, b: int, c: int, d: int, transform: UniMat2) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "transform", transform)
        self.__post_init__()
        object.__setattr__(self, "gens", (Vec2(0, 1), Vec2(a, b), Vec2(c, d)))
        g = gcd(a, c)
        c_g, a_g = c // g, a // g
        consts = g, c_g, a_g, (self.b * self.c - self.a * self.d) // g, pow(a_g, -1, c_g)
        object.__setattr__(self, "line_consts", consts)

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 0 or self.c < 1 or self.d < 0:
            raise ValueError("canonical generators need a >= 1, c >= 1 and b, d >= 0")
        if gcd(self.a, self.b) != 1:
            raise NotPhiMinimalError(f"({self.a}, {self.b}) has coordinate gcd > 1")
        if gcd(self.c, self.d) != 1:
            raise NotPhiMinimalError(f"({self.c}, {self.d}) has coordinate gcd > 1")
        if self.a * self.d >= self.b * self.c:
            raise ValueError("generators must come in strictly increasing slope order")

    @property
    def star(self) -> bool:
        """Whether b*c - a*d = 1.  Only the CLI's ``limit`` and ``scan`` and
        ``asymptotics.rho_special_*`` require it."""
        return self.b * self.c - self.a * self.d == 1


Monoid = CanonicalMonoid2 | CanonicalMonoid3


def _validate_raw(gens: Sequence[Vec2]) -> tuple[Vec2, ...]:
    out = tuple(gens)
    if len(out) not in (2, 3):
        raise ValueError(f"expected 2 or 3 generators, got {len(out)}")
    seen = set()
    for g in out:
        if g.is_zero:
            raise ZeroGeneratorError("(0, 0) is not a valid generator")
        if not is_phi_minimal(g):
            raise NotPhiMinimalError(f"generator {g} has coordinate gcd > 1")
        if (g.x, g.y) in seen:
            raise DuplicateGeneratorError(f"generator {g} appears twice")
        seen.add((g.x, g.y))
    return out


def canonicalize(gens: Sequence[Vec2]) -> Monoid:
    """Sort the generators by slope and change coordinates to canonical form.

    The rows (y1, -x1) and (s, t), with s*x1 + t*y1 = 1 from ``ext_gcd``,
    send the first generator (x1, y1) to (0, 1).  Every other generator
    (x, y) has a larger slope, so its image has first coordinate
    y1*x - x1*y >= 1.  Adding the least multiple of the first row to the
    second that makes every image's second coordinate nonnegative completes
    the transform.  Its determinant is +1, so it keeps the slope order of the
    images: one sort is enough.  The returned monoid records the transform,
    so callers can map query vectors into canonical coordinates with
    ``canonical_coords``.  Generators that already are canonical come back
    unchanged with the identity transform.
    """
    # Distinct phi-minimal vectors never share a slope, so the order is strict.
    first, *rest = sorted(_validate_raw(gens), key=functools.cmp_to_key(slope_compare))
    x1, y1 = first.x, first.y
    _, s, t = ext_gcd(x1, y1)
    images = [(y1 * g.x - x1 * g.y, s * g.x + t * g.y) for g in rest]
    # ceil(-y / x) is the least k with y + k*x >= 0.
    shift = max(0, *((-y + x - 1) // x for x, y in images))
    transform = UniMat2(y1, -x1, s + shift * y1, t - shift * x1)
    (a, b), *more = [(x, y + shift * x) for x, y in images]
    if not more:
        return CanonicalMonoid2(a, b, transform)
    return CanonicalMonoid3(a, b, *more[0], transform)


def canonical_coords(m: Monoid, s: Vec2) -> Vec2 | None:
    """Map a vector given in original coordinates through the transform.

    Returns None when the image leaves N0^2; such a vector cannot belong to
    the monoid, because every member is a nonnegative combination of the
    original generators and those map into N0^2 by construction.
    """
    tx, ty = m.transform.apply(s.x, s.y)
    if tx < 0 or ty < 0:
        return None
    return Vec2(tx, ty)


def validate_minimal_generation(m: Monoid) -> bool:
    """True when no generator is a combination of the remaining generators.

    Decided in closed form.  (0, 1) and (c, d) have the least and the greatest
    slope, so no combination of the others reaches them, and two canonical
    generators are therefore never redundant.  (a, b) = i*(0, 1) + k*(c, d)
    needs k*c = a, and then i = b - k*d > 0 because a*d < b*c; so (a, b) is
    redundant exactly when c divides a.
    """
    return isinstance(m, CanonicalMonoid2) or m.a % m.c != 0
