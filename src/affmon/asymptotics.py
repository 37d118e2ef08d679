"""Elasticity of multiples k*s in three-generator monoids and its k -> infinity limit.

Let s = (x, y) be a nonzero member of <(0,1), (a,b), (c,d)>, with
g = gcd(a, c), D = b*c - a*d and P = (c/g)*lcm(a/g, D/g).  As k grows, the
elasticity of k*s tends to a ratio of linear forms in x and y:

  with x*b <= y*a:   ( c*(y*a - x*(b-1)) / (a*(y*c - x*(d-1))) ) ** tau
  with x*b >= y*a:   ( (c*(c-a)*y - ((c-a)*d - D)*x) / (D*(y*c - x*(d-1))) ) ** tau

where tau = sign(c - a - D) and the exponent -1 means the reciprocal, which
keeps every value >= 1.  So the limit is a linear fractional transformation
of (x, y), exposed here as ``LimitLFT``, and it is exactly rho(P*s): at
k = P, alpha0 = 0 and both beta0/(a/g) and delta0/(D/g) are integers, so J
has no rounding and the two end lengths of the line of P*s have the ratio of
the form.  ``rho_limit`` derives the limit both ways on every input, the
form and the checked ``solve3.Line`` of P*s, and raises ``ValueError``
unless they agree.
On a star monoid (D = 1, so P = a*c) the forms are also the exact elasticity
of k*s along residue classes, a*c | k below slope a/b and c | k above it:
``rho_special_ac`` and ``rho_special_c``, which refuse any other monoid.
Every value is a plain ``fractions.Fraction``.

``scan_multiples`` tabulates exact values against the limit for empirical
convergence studies, and ``affmon scan`` prints its rows.  Both read the
private kernel ``_scan``: it computes the limit once and every row on plain
ints, into one flat int list, k, p, q, n and d per row, allocated up front;
a k_max no list can hold is refused (InputTooLarge) before any row.
``scan_multiples`` regroups that list into tuples, and ``cli`` renders it
as it is.

The factorization line of (r + t*P)*s is the line of r*s plus t times the
line of P*s, end for end: alpha0 depends on k only mod c/g, so it is 0 at
P*s and the same along a class, beta0 and delta0 are additive in k, and
beta0(P*s) and delta0(P*s) are multiples of a/g and D/g, so each floor in J
splits.  So ``solve3._line`` is read once for each k <= min(P, k_max), and
at P*s also when k_max < P.  The limit reads s and P*s, each checked as a
``solve3.Line``: the line of s is the first row, and that of P*s every
class's step and the first row of the class of P.  Each class r is checked
by building a ``Line`` from its first row and from its last row,
start + T*step, and a class that fails raises at its last row.  Once both
rows pass, so does every row between them.  Each condition of the ``Line``
check but the end's "delta < D/g or beta < a/g" is affine in t, so each
row's start is the j = 0 point of its line and its end a factorization at
an index j(t) affine in t.  As k*s has the slope of s, J(t) is
beta0(t) div (a/g) on every row, or delta0(t) div (D/g) on every row
(``solve3``'s two branches).  J(t) - j(t) is then the floor of an affine
function, monotone in t and 0 at both rows, so 0 on every row.

Along the class of r the two end lengths are L_r + t*L_P and H_r + t*H_P,
so rho is their ratio, constant on the class exactly when
H_r*L_P == L_r*H_P.  Then it equals rho(P*s), the limit, so a class has gap
0 on every row or on none.  A constant class has its first row reduced once
and copied down its columns by slice; every other class steps the two
lengths per row and reduces the exact value and its gap by one ``gcd`` each.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    InputTooLargeError,
    NotMemberError,
    PeriodicityViolatedError,
    StarRequiredError,
    WrongBranchError,
    ZeroElementError,
)
from .factorization import Membership
from .monoids import CanonicalMonoid3
from .rationals import Vec2, _Frozen
from .solve3 import Line, _line, line

__all__ = [
    "LimitLFT",
    "tau",
    "rho_special_ac",
    "rho_special_c",
    "rho_limit",
    "scan_multiples",
]


def tau(m: CanonicalMonoid3) -> int:
    """Sign of c - a - D, that of the length step (c - a - D)/g along the
    factorization line: it orients the elasticity formulas."""
    g, _, _, d_g, _ = m.line_consts
    diff = m.c - m.a - g * d_g
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


def _lft(m: CanonicalMonoid3, low: bool) -> LimitLFT:
    """The limit's form below slope a/b (``low``) or above it."""
    a, b, c, d = m.a, m.b, m.c, m.d
    if low:
        # c*(y*a - x*(b-1)) over a*(y*c - x*(d-1)), as coefficients on (x, y).
        return LimitLFT(-c * (b - 1), c * a, -a * (d - 1), a * c, tau(m))
    g, _, _, d_g, _ = m.line_consts
    D = g * d_g
    # c*(c-a)*y - ((c-a)*d - D)*x over D*(y*c - x*(d-1)).
    return LimitLFT(D - (c - a) * d, c * (c - a), -D * (d - 1), D * c, tau(m))


def _check_multiple_args(m: CanonicalMonoid3, s: Vec2, k: int, period: int, name: str) -> None:
    if not m.star:
        raise StarRequiredError("periodic elasticity formulas need b*c - a*d = 1")
    if s.is_zero:
        raise ZeroElementError("elasticity of the zero element is undefined")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k % period:
        raise PeriodicityViolatedError(f"{name} requires {period} | k, got k={k}")
    if isinstance(line(m, s), Membership):
        raise NotMemberError(f"{s} is not in the monoid")


def rho_special_ac(m: CanonicalMonoid3, s: Vec2, k: int) -> Fraction:
    """Exact elasticity of k*s when a*c divides k and slope(s) <= a/b.

    The value does not depend on k beyond the divisibility requirement.
    """
    _check_multiple_args(m, s, k, m.a * m.c, "rho_special_ac")
    if s.x * m.b > s.y * m.a:
        raise WrongBranchError("rho_special_ac needs x*b <= y*a")
    return _lft(m, True).evaluate(s)


def rho_special_c(m: CanonicalMonoid3, s: Vec2, k: int) -> Fraction:
    """Exact elasticity of k*s when c divides k and slope(s) >= a/b.

    The value does not depend on k beyond the divisibility requirement.
    """
    _check_multiple_args(m, s, k, m.c, "rho_special_c")
    if s.x * m.b < s.y * m.a:
        raise WrongBranchError("rho_special_c needs x*b >= y*a")
    return _lft(m, False).evaluate(s)


def rho_limit(m: CanonicalMonoid3, s: Vec2) -> tuple[LimitLFT, Fraction]:
    """Limit of the elasticity of k*s as k grows, with its LFT form.

    The form follows the slope comparison with a/b, the low-slope one on
    the boundary, where both agree.  Its value is checked against rho(P*s),
    read from the line of P*s, and a mismatch raises ``ValueError``.
    """
    return _limit(m, s)[:2]


def _limit(m: CanonicalMonoid3, s: Vec2) -> tuple[LimitLFT, Fraction, int, tuple, tuple]:
    """``rho_limit``'s form and value, P, and the checked ends of the lines
    of s and of P*s, as ``_line`` gives them."""
    if s.is_zero:
        raise ZeroElementError("elasticity of the zero element is undefined")
    x, y = s.x, s.y
    first = _line(m, x, y)
    if isinstance(first, Membership):
        raise NotMemberError(f"{s} is not in the monoid")
    Line(s, first[:3], first[3:], m)
    _, c_g, a_g, d_g, _ = m.line_consts
    period = c_g * lcm(a_g, d_g)
    step = _line(m, period * x, period * y)
    Line(Vec2(period * x, period * y), step[:3], step[3:], m)
    lft = _lft(m, x * m.b <= y * m.a)
    value = lft.evaluate(s)
    lo, hi = sorted((sum(step[:3]), sum(step[3:])))
    if value.numerator * lo != value.denominator * hi:
        raise ValueError(f"the limit form gives {value} at {s}, not rho(P*s) = {hi}/{lo}")
    return lft, value, period, first, step


def scan_multiples(m: CanonicalMonoid3, s: Vec2, k_max: int) -> tuple[Fraction, list[tuple]]:
    """Exact elasticity of k*s for k = 1..k_max, with gaps to the limit.

    Returns the limit and, for each k, the row (k, p, q, n, d) with
    rho(k*s) = p/q and |limit - p/q| = n/d, both in lowest terms.
    """
    limit, flat = _scan(m, s, k_max)
    return limit, list(zip(flat[0::5], flat[1::5], flat[2::5], flat[3::5], flat[4::5]))


def _scan(m: CanonicalMonoid3, s: Vec2, k_max: int) -> tuple[Fraction, list[int]]:
    """The limit and ``scan_multiples``' rows as one flat int list
    k, p, q, n, d, k, p, q, n, d, ... in order of k."""
    if k_max < 1:
        raise ValueError("k_max must be a positive integer")
    _, limit, period, first, step = _limit(m, s)
    ln, ld = limit.numerator, limit.denominator
    x, y = s.x, s.y
    try:
        flat: list = [0] * (5 * k_max)
    except (OverflowError, MemoryError):
        raise InputTooLargeError("k_max is more rows than a list can hold") from None
    flat[0::5] = range(1, k_max + 1)
    # The line of P*s is every class's step: k = r + t*P has the ends of
    # r*s plus t times those of P*s.
    dlo, dhi = sum(step[:3]), sum(step[3:])
    checked = {1: first, period: step}
    stride = 5 * period
    for r in range(1, min(period, k_max) + 1):
        start = checked.get(r)
        if start is None:
            start = _line(m, r * x, r * y)
            Line(Vec2(r * x, r * y), start[:3], start[3:], m)
        lo, hi = sum(start[:3]), sum(start[3:])
        last = (k_max - r) // period
        if last:
            k = r + last * period
            end = tuple(e + last * de for e, de in zip(start, step))
            Line(Vec2(k * x, k * y), end[:3], end[3:], m)  # raises unless the last row is a line
        # hi/lo is the same on every row of a class with hi*dlo == lo*dhi:
        # its first row is reduced, and the rest copy it.
        constant = hi * dlo == lo * dhi
        i = 5 * r - 4
        for _ in range(1 if constant else last + 1):
            g = gcd(hi, lo)
            p, q = hi // g, lo // g
            if p < q:
                p, q = q, p
            n, d = abs(ln * q - p * ld), ld * q
            g = gcd(n, d)
            flat[i] = p
            flat[i + 1] = q
            flat[i + 2] = n // g
            flat[i + 3] = d // g
            i += stride
            lo, hi = lo + dlo, hi + dhi
        if constant and last:
            i, count = 5 * r - 4, last + 1
            flat[i::stride] = [p] * count
            flat[i + 1 :: stride] = [q] * count
            flat[i + 2 :: stride] = [n // g] * count
            flat[i + 3 :: stride] = [d // g] * count
    return limit, flat
