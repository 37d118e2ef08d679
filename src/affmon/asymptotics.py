"""Elasticity of multiples k*s in star monoids and its k -> infinity limit.

For a member s = (x, y) of a star monoid <(0,1), (a,b), (c,d)> the elasticity
of k*s is eventually periodic in k, and along the right residue classes it is
constant and given by a ratio of linear forms in x and y:

  with a*c | k and x*b <= y*a:   ( c*(y*a - x*(b-1)) / (a*(y*c - x*(d-1))) ) ** tau
  with c | k  and x*b >= y*a:    ( c*(y*(c-a) - x*(d-b)) / (y*c - x*(d-1)) ) ** tau

where tau = sign(c - a - 1) and the exponent -1 means the reciprocal, which
keeps every value >= 1.  The k -> infinity limit of the elasticity equals the
same expressions, so it is a linear fractional transformation of (x, y),
exposed here as ``LimitLFT``.  Every value is a plain ``fractions.Fraction``.
``scan_multiples`` tabulates exact values against the limit for empirical
convergence studies, and ``affmon scan`` prints its rows.  It computes the
limit once and each row on plain ints, into one list allocated up front; a
k_max no list can hold is refused (InputTooLarge) before any row.
The two ends (delta, alpha, beta) of the factorization line of k*s, at j = 0
and j = J, are affine in t along each residue class k = r + t*P, where
P = (c/g)*lcm(a/g, D/g), which is a*c on a star monoid.  So ``solve3._line``
is read for k <= P, and once more at k = r + P for each class r when the scan
goes past P, which gives the class's step.  Each class is checked by
``solve3._is_line`` at its first row and at its last row, start + T*step, and
a class that fails raises at its last row.  Once both rows pass, so does
every row between them.  Each condition but the end's "delta < D/g or
beta < a/g" is affine in t, so each row's start is the j = 0 point of its
line and its end a factorization at an index j(t) affine in t.  As k*s has
the slope of s, J(t) is beta0(t) div (a/g) on every row, or delta0(t) div
(D/g) on every row (``solve3``'s two branches).  J(t) - j(t) is then the
floor of an affine function, monotone in t and 0 at both rows, so 0 on every
row.  Each row then steps the two lengths by the class's sums and reduces
the exact value and its gap by one ``gcd`` each.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import sub

from .errors import (
    InputTooLargeError,
    NotMemberError,
    PeriodicityViolatedError,
    StarRequiredError,
    WrongBranchError,
    ZeroElementError,
)
from .monoids import CanonicalMonoid3
from .rationals import Vec2, _Frozen
from .solve3 import _is_line, _line, _not_line, member3

__all__ = [
    "LimitLFT",
    "tau",
    "rho_special_ac",
    "rho_special_c",
    "rho_limit",
    "scan_multiples",
]


def tau(m: CanonicalMonoid3) -> int:
    """Sign of c - a - 1: orients the length line and the elasticity formulas."""
    diff = m.c - m.a - 1
    return (diff > 0) - (diff < 0)


class LimitLFT(_Frozen):
    """The limit elasticity as a map (x, y) -> ((p*x + q*y)/(r*x + t*y)) ** tau.

    Coefficients may be negative individually; on a nonzero member of the
    monoid both linear forms are strictly positive.
    """

    _fields = ("p", "q", "r", "t", "tau")

    def __init__(self, p: int, q: int, r: int, t: int, tau: int) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "tau", tau)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.tau not in (-1, 0, 1):
            raise ValueError("tau must be -1, 0, or +1")

    def evaluate(self, s: Vec2) -> Fraction:
        num = self.p * s.x + self.q * s.y
        den = self.r * s.x + self.t * s.y
        if num <= 0 or den <= 0:
            raise ValueError(f"linear forms not positive at {s}; not a nonzero member")
        if self.tau == 0:
            return Fraction(1)
        return Fraction(num, den) if self.tau == 1 else Fraction(den, num)


def _lft_low(m: CanonicalMonoid3) -> LimitLFT:
    # c*(y*a - x*(b-1)) over a*(y*c - x*(d-1)), as coefficients on (x, y).
    return LimitLFT(
        p=-m.c * (m.b - 1),
        q=m.c * m.a,
        r=-m.a * (m.d - 1),
        t=m.a * m.c,
        tau=tau(m),
    )


def _lft_high(m: CanonicalMonoid3) -> LimitLFT:
    # c*(y*(c-a) - x*(d-b)) over y*c - x*(d-1), as coefficients on (x, y).
    return LimitLFT(
        p=-m.c * (m.d - m.b),
        q=m.c * (m.c - m.a),
        r=-(m.d - 1),
        t=m.c,
        tau=tau(m),
    )


def _check_multiple_args(m: CanonicalMonoid3, s: Vec2, k: int, period: int, name: str) -> None:
    if not m.star:
        raise StarRequiredError("periodic elasticity formulas need b*c - a*d = 1")
    if s.is_zero:
        raise ZeroElementError("elasticity of the zero element is undefined")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k % period:
        raise PeriodicityViolatedError(f"{name} requires {period} | k, got k={k}")
    if not member3(m, s).member:
        raise NotMemberError(f"{s} is not in the monoid")


def rho_special_ac(m: CanonicalMonoid3, s: Vec2, k: int) -> Fraction:
    """Exact elasticity of k*s when a*c divides k and slope(s) <= a/b.

    The value does not depend on k beyond the divisibility requirement.
    """
    _check_multiple_args(m, s, k, m.a * m.c, "rho_special_ac")
    if s.x * m.b > s.y * m.a:
        raise WrongBranchError("rho_special_ac needs x*b <= y*a")
    return _lft_low(m).evaluate(s)


def rho_special_c(m: CanonicalMonoid3, s: Vec2, k: int) -> Fraction:
    """Exact elasticity of k*s when c divides k and slope(s) >= a/b.

    The value does not depend on k beyond the divisibility requirement.
    """
    _check_multiple_args(m, s, k, m.c, "rho_special_c")
    if s.x * m.b < s.y * m.a:
        raise WrongBranchError("rho_special_c needs x*b >= y*a")
    return _lft_high(m).evaluate(s)


def rho_limit(m: CanonicalMonoid3, s: Vec2) -> tuple[LimitLFT, Fraction]:
    """Limit of the elasticity of k*s as k grows, with its LFT form.

    The branch follows the slope comparison with a/b; on the boundary both
    formulas are computed and checked equal (the low-slope form is
    returned).
    """
    if not m.star:
        raise StarRequiredError("the limit formula needs b*c - a*d = 1")
    if s.is_zero:
        raise ZeroElementError("elasticity of the zero element is undefined")
    if not member3(m, s).member:
        raise NotMemberError(f"{s} is not in the monoid")
    low, high = s.x * m.b, s.y * m.a
    if low <= high:
        lft = _lft_low(m)
        value = lft.evaluate(s)
        if low == high and _lft_high(m).evaluate(s) != value:
            raise RuntimeError("limit branches disagree on the boundary")
    else:
        lft = _lft_high(m)
        value = lft.evaluate(s)
    return lft, value


def scan_multiples(m: CanonicalMonoid3, s: Vec2, k_max: int) -> tuple[Fraction, list[tuple]]:
    """Exact elasticity of k*s for k = 1..k_max, with gaps to the limit.

    Returns the limit and, for each k, the row (k, p, q, n, d) with
    rho(k*s) = p/q and |limit - p/q| = n/d, both in lowest terms.
    """
    if k_max < 1:
        raise ValueError("k_max must be a positive integer")
    _, limit = rho_limit(m, s)
    ln, ld = limit.numerator, limit.denominator
    x, y = s.x, s.y
    _, c_g, a_g, d_g, _ = m.line_consts
    period = c_g * lcm(a_g, d_g)
    try:
        rows: list = [None] * k_max
    except (OverflowError, MemoryError):
        raise InputTooLargeError("k_max is more rows than a list can hold") from None
    for r in range(1, min(period, k_max) + 1):
        rx, ry = r * x, r * y
        u, v, w, uj, vj, wj = start = _line(m, rx, ry)
        if not _is_line(m, start, rx, ry):
            raise _not_line(start, rx, ry)
        lo, hi, dlo, dhi = u + v + w, uj + vj + wj, 0, 0
        last = (k_max - r) // period
        if last:
            # On the class of r the ends are start + t*step, k = r + t*period.
            nxt = r + period
            su, sv, sw, suj, svj, swj = step = tuple(map(sub, _line(m, nxt * x, nxt * y), start))
            dlo, dhi = su + sv + sw, suj + svj + swj
            k = r + last * period
            end = tuple(e + last * de for e, de in zip(start, step))
            if not _is_line(m, end, k * x, k * y):
                raise _not_line(end, k * x, k * y)
        for k in range(r, k_max + 1, period):
            g = gcd(hi, lo)
            p, q = hi // g, lo // g
            if p < q:
                p, q = q, p
            n, d = abs(ln * q - p * ld), ld * q
            g = gcd(n, d)
            rows[k - 1] = (k, p, q, n // g, d // g)
            lo, hi = lo + dlo, hi + dhi
    return limit, rows
