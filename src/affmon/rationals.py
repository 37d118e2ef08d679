"""Exact nonnegative rationals with +infinity, and slopes of lattice points.

``ExtRat`` models Q>=0 together with +infinity.  Values are always stored in
lowest terms, with +infinity encoded as 1/0 and zero as 0/1, so dataclass
equality is value equality and every comparison is a single cross
multiplication -- no division, no floats.  ``Vec2`` is a point of N0^2; its
slope ``phi`` is x/y, read as +infinity on the x-axis.

Everything in this module is immutable and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

from .errors import ZeroVectorError

__all__ = [
    "Vec2",
    "ExtRat",
    "ZERO",
    "ONE",
    "INF",
    "phi",
    "mediant",
    "compare",
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
    """An element of Q>=0 together with +infinity.

    The pair (num, den) is normalized on construction: common factors are
    removed, +infinity becomes (1, 0) and zero becomes (0, 1).  0/0 is
    rejected.  Negative inputs are rejected; this type deliberately covers
    only the nonnegative ray, which is all the slope map can produce.
    """

    num: int
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if not isinstance(num, int) or not isinstance(den, int):
            raise TypeError("numerator and denominator must be integers")
        if num < 0 or den < 0:
            raise ValueError(f"negative rationals are not supported: {num}/{den}")
        if num == 0 and den == 0:
            raise ValueError("0/0 is not a value")
        if den == 0:
            num = 1
        else:
            g = gcd(num, den)
            num //= g
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    # Total order by cross multiplication.  The canonical encodings make the
    # single formula correct for finite and infinite values alike.
    def __lt__(self, other: "ExtRat") -> bool:
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "ExtRat") -> bool:
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other: "ExtRat") -> bool:
        return other < self

    def __ge__(self, other: "ExtRat") -> bool:
        return other <= self

    def abs_diff(self, other: "ExtRat") -> "ExtRat":
        """Exact |self - other|.  Defined unless both operands are infinite."""
        if self.is_infinite and other.is_infinite:
            raise ValueError("difference of two infinite values is undefined")
        if self.is_infinite or other.is_infinite:
            return INF
        return ExtRat(abs(self.num * other.den - other.num * self.den), self.den * other.den)

    def pow_sign(self, e: int) -> "ExtRat":
        """self**e for e in {-1, 0, 1}; the reciprocal of 0 is +infinity."""
        if e == 0:
            return ONE
        if e == 1:
            return self
        if e == -1:
            return ExtRat(self.den, self.num) if self.num else INF
        raise ValueError("exponent must be -1, 0, or 1")

    def approx(self) -> float:
        """Decimal approximation, for display only; inf beyond float range."""
        try:
            return math.inf if self.is_infinite else self.num / self.den
        except OverflowError:
            return math.inf

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "ExtRat":
        """Inverse of ``str``: accepts "inf", "p", or "p/q"."""
        body = text.strip()
        if body == "inf":
            return INF
        num_s, sep, den_s = body.partition("/")
        if not num_s.isdigit() or (sep and not den_s.isdigit()):
            raise ValueError(f"not a nonnegative rational: {text!r}")
        return cls(int(num_s), int(den_s) if sep else 1)


ZERO = ExtRat(0, 1)
ONE = ExtRat(1, 1)
INF = ExtRat(1, 0)


def phi(v: Vec2) -> ExtRat:
    """Slope of a nonzero lattice point: x/y, with y = 0 mapping to +infinity."""
    if v.is_zero:
        raise ZeroVectorError("the slope of (0, 0) is undefined")
    return ExtRat(v.x, v.y)


def mediant(u: Vec2, v: Vec2) -> Vec2:
    """Componentwise sum.  For nonzero u, v with phi(u) < phi(v) the slope of
    the mediant lies strictly between the two."""
    return Vec2(u.x + v.x, u.y + v.y)


def compare(p: ExtRat, q: ExtRat) -> int:
    """Three-way comparison: -1 if p < q, 0 if equal, +1 if p > q."""
    lhs = p.num * q.den
    rhs = q.num * p.den
    return (lhs > rhs) - (lhs < rhs)


def slope_compare(u: Vec2, v: Vec2) -> int:
    """Three-way comparison of phi(u) and phi(v) for nonzero u, v, done on the
    cross product so it never builds intermediate rationals."""
    cross = u.x * v.y - v.x * u.y
    return (cross > 0) - (cross < 0)


def is_phi_minimal(v: Vec2) -> bool:
    """True when v is the shortest lattice point on its ray (coprime coordinates)."""
    return gcd(v.x, v.y) == 1
