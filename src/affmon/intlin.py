"""Integer linear algebra on 2 x p matrices.

Just enough machinery to normalize generator matrices: extended gcd, a
row-swapped Hermite form whose first column becomes (0, 1), and the two
determinantal divisors d1 (gcd of entries) and d2 (gcd of 2 x 2 minors).
The d2 comparison gives a sound but incomplete non-membership test.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import BothZeroError, NegativeResultError, NotPhiMinimalError
from .rationals import Vec2

__all__ = [
    "Mat2xP",
    "UniMat2",
    "ext_gcd",
    "row_swapped_hnf",
    "det_divisors",
    "d2_test",
    "D2_NOT_MEMBER",
    "D2_INCONCLUSIVE",
]

D2_NOT_MEMBER = "not_member"
D2_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Mat2xP:
    """An integer matrix with two rows, stored column-wise."""

    cols: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.cols) < 1:
            raise ValueError("a matrix needs at least one column")
        for col in self.cols:
            if len(col) != 2 or not all(isinstance(e, int) for e in col):
                raise ValueError(f"columns must be integer pairs, got {col!r}")

    @property
    def p(self) -> int:
        return len(self.cols)

    @classmethod
    def from_vecs(cls, vecs) -> "Mat2xP":
        return cls(tuple((v.x, v.y) for v in vecs))

    def with_column(self, col: tuple[int, int]) -> "Mat2xP":
        return Mat2xP(self.cols + ((col[0], col[1]),))


@dataclass(frozen=True)
class UniMat2:
    """A 2 x 2 integer matrix with determinant +-1 (row-major entries)."""

    m00: int
    m01: int
    m10: int
    m11: int

    def __post_init__(self):
        if self.det not in (1, -1):
            raise ValueError(f"determinant must be +-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.m00 * self.m11 - self.m01 * self.m10

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return (self.m00 * x + self.m01 * y, self.m10 * x + self.m11 * y)

    def apply_mat(self, m: Mat2xP) -> Mat2xP:
        return Mat2xP(tuple(self.apply(cx, cy) for cx, cy in m.cols))

    def as_rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.m00, self.m01), (self.m10, self.m11))


IDENTITY = UniMat2(1, 0, 0, 1)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(|a|, |b|) > 0 and s*a + t*b = g."""
    if a == 0 and b == 0:
        raise BothZeroError("gcd(0, 0) has no Bezout certificate")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def row_swapped_hnf(m: Mat2xP) -> tuple[UniMat2, Mat2xP]:
    """Normalize so the first column becomes (0, 1).

    Returns (u, m2) with u unimodular and u * m = m2.  The first column of m
    must have coprime entries.  After zeroing its top entry with a Bezout row,
    any negative second-row entries are repaired by adding multiples of the
    first row; that is always possible when the first column has the strictly
    smallest slope, and NegativeResult is raised when it is not.
    """
    x1, y1 = m.cols[0]
    if gcd(x1, y1) != 1:
        raise NotPhiMinimalError(f"first column {(x1, y1)} has gcd {gcd(x1, y1)}")
    _, s, t = ext_gcd(x1, y1)
    u = UniMat2(y1, -x1, s, t)
    cols = [u.apply(cx, cy) for cx, cy in m.cols]

    shift = 0
    for cx, cy in cols[1:]:
        if cx < 0:
            raise NegativeResultError(f"column maps to {(cx, cy)}, outside N0^2")
        if cy < 0:
            if cx == 0:
                raise NegativeResultError(f"column maps to {(cx, cy)}, outside N0^2")
            shift = max(shift, (-cy + cx - 1) // cx)
    if shift:
        u = UniMat2(u.m00, u.m01, u.m10 + shift * u.m00, u.m11 + shift * u.m01)
        cols = [(cx, cy + shift * cx) for cx, cy in cols]
    if any(cx < 0 or cy < 0 for cx, cy in cols):
        raise NegativeResultError("normalization left the nonnegative quadrant")
    return u, Mat2xP(tuple(cols))


def det_divisors(m: Mat2xP) -> tuple[int, int]:
    """The determinantal divisors (d1, d2).

    d1 is the gcd of all entries and d2 the gcd of all 2 x 2 minors, each
    taken as 0 when everything vanishes (and d2 = 0 when p < 2).  Both are
    invariant under multiplication by unimodular matrices.
    """
    d1 = 0
    for cx, cy in m.cols:
        d1 = gcd(d1, cx, cy)
    d2 = 0
    cols = m.cols
    for i in range(len(cols)):
        xi, yi = cols[i]
        for j in range(i + 1, len(cols)):
            xj, yj = cols[j]
            d2 = gcd(d2, xi * yj - xj * yi)
    return d1, d2


def d2_test(m: Mat2xP, s: Vec2) -> str:
    """Sound non-membership test: if appending s changes d2, s is not in the
    monoid the columns generate.  An unchanged d2 proves nothing."""
    before = det_divisors(m)[1]
    after = det_divisors(m.with_column((s.x, s.y)))[1]
    return D2_NOT_MEMBER if after != before else D2_INCONCLUSIVE
