"""Exact nonnegative rationals, and slopes of lattice points.

``ExtRat`` models Q>=0.  Values are always stored in lowest terms with a
positive denominator, so dataclass equality is value equality and every
comparison is a single cross multiplication -- no division, no floats.
``Vec2`` is a point of N0^2; two nonzero points are ordered by their slope
x/y, compared on the cross product.

Everything in this module is immutable and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

__all__ = [
    "Vec2",
    "ExtRat",
    "ONE",
    "slope_compare",
    "is_phi_minimal",
]


@dataclass(frozen=True)
class Vec2:
    """A lattice point (x, y) with nonnegative integer coordinates."""

    x: int
    y: int

    def __post_init__(self):
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise TypeError("coordinates must be integers")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"coordinates must be nonnegative, got ({self.x}, {self.y})")

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __mul__(self, k: int) -> "Vec2":
        return Vec2(k * self.x, k * self.y)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class ExtRat:
    """An element of Q>=0 as num/den in lowest terms, den >= 1.  Every value
    the program computes (an elasticity, a limit, a gap) is one of these."""

    num: int
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if not isinstance(num, int) or not isinstance(den, int):
            raise TypeError("numerator and denominator must be integers")
        if num < 0 or den < 1:
            raise ValueError(f"not a nonnegative rational: {num}/{den}")
        g = gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    # Total order by cross multiplication (denominators are positive).
    def __lt__(self, other: "ExtRat") -> bool:
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "ExtRat") -> bool:
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other: "ExtRat") -> bool:
        return other < self

    def __ge__(self, other: "ExtRat") -> bool:
        return other <= self

    def abs_diff(self, other: "ExtRat") -> "ExtRat":
        """Exact |self - other|."""
        return ExtRat(abs(self.num * other.den - other.num * self.den), self.den * other.den)

    def approx(self) -> float:
        """Decimal approximation, for display only; inf beyond float range."""
        try:
            return self.num / self.den
        except OverflowError:
            return math.inf

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


ONE = ExtRat(1, 1)


def slope_compare(u: Vec2, v: Vec2) -> int:
    """Three-way comparison of the slopes x/y of nonzero u and v (y = 0 is
    the steepest), done on the cross product so it builds no rationals."""
    cross = u.x * v.y - v.x * u.y
    return (cross > 0) - (cross < 0)


def is_phi_minimal(v: Vec2) -> bool:
    """True when v is the shortest lattice point on its ray (coprime coordinates)."""
    return gcd(v.x, v.y) == 1
