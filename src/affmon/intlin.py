"""Integer linear algebra on 2 x p matrices, passed as sequences of columns.

Just enough machinery to normalize generator matrices: extended gcd, a
row-swapped Hermite form whose first column becomes (0, 1), and the two
determinantal divisors d1 (gcd of entries) and d2 (gcd of 2 x 2 minors).
The d2 comparison gives a sound but incomplete non-membership test.  Each
column is an (x, y) pair of ints, checked once on entry to
``row_swapped_hnf`` and ``det_divisors``.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from math import gcd

from .errors import BothZeroError, NegativeResultError, NotPhiMinimalError
from .rationals import Vec2, _Frozen

__all__ = [
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
_Col = tuple[int, int]  # one column (x, y)


class UniMat2(_Frozen):
    """A 2 x 2 integer matrix with determinant +-1 (row-major entries)."""

    _fields = ("m00", "m01", "m10", "m11")

    def __init__(self, m00: int, m01: int, m10: int, m11: int) -> None:
        object.__setattr__(self, "m00", m00)
        object.__setattr__(self, "m01", m01)
        object.__setattr__(self, "m10", m10)
        object.__setattr__(self, "m11", m11)
        self.__post_init__()

    def __post_init__(self):
        if self.det not in (1, -1):
            raise ValueError(f"determinant must be +-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.m00 * self.m11 - self.m01 * self.m10

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return (self.m00 * x + self.m01 * y, self.m10 * x + self.m11 * y)

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


def _columns(cols: Sequence[_Col]) -> tuple[_Col, ...]:
    """The columns as a tuple, after checking there is one and each is an int pair."""
    out = tuple(cols)
    if not out or not all(
        isinstance(c, (tuple, list)) and len(c) == 2 and all(isinstance(e, int) for e in c)
        for c in out
    ):
        raise ValueError(f"a matrix needs one or more columns of integer pairs, got {out!r}")
    return out


def row_swapped_hnf(cols: Sequence[_Col]) -> tuple[UniMat2, tuple[_Col, ...]]:
    """Normalize so the first column becomes (0, 1).

    Returns (u, cols2) with u unimodular and u * cols = cols2, column by
    column.  The first column must have coprime entries.  After zeroing its
    top entry with a Bezout row, any negative second-row entries are repaired
    by adding multiples of the first row; that is always possible when the
    first column has the strictly smallest slope, and NegativeResult is
    raised when it is not.
    """
    cols = _columns(cols)
    x1, y1 = cols[0]
    if gcd(x1, y1) != 1:
        raise NotPhiMinimalError(f"first column {(x1, y1)} has gcd {gcd(x1, y1)}")
    _, s, t = ext_gcd(x1, y1)
    u = UniMat2(y1, -x1, s, t)
    cols = [u.apply(cx, cy) for cx, cy in cols]

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
    return u, tuple(cols)


def det_divisors(cols: Sequence[_Col]) -> tuple[int, int]:
    """The determinantal divisors (d1, d2).

    d1 is the gcd of all entries and d2 the gcd of all 2 x 2 minors, each
    taken as 0 when everything vanishes (and d2 = 0 when p < 2).  Both are
    invariant under multiplication by unimodular matrices.
    """
    cols = _columns(cols)
    d1 = gcd(*(e for col in cols for e in col))
    d2 = gcd(*(xi * yj - xj * yi for (xi, yi), (xj, yj) in combinations(cols, 2)))
    return d1, d2


def d2_test(cols: Sequence[_Col], s: Vec2) -> str:
    """Sound non-membership test: if appending s changes d2, s is not in the
    monoid the columns generate.  An unchanged d2 proves nothing."""
    before = det_divisors(cols)[1]
    after = det_divisors((*cols, (s.x, s.y)))[1]
    return D2_NOT_MEMBER if after != before else D2_INCONCLUSIVE
