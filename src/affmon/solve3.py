"""Membership, factorizations, and elasticity for three canonical generators.

Write S = <u, v, w> with u = (0,1), v = (a,b), w = (c,d) in increasing slope
order, g = gcd(a, c) and D = b*c - a*d >= 1.  Only v and w contribute to the
first coordinate, so a factorization (delta, alpha, beta) of s = (x, y) needs
a representation x = alpha*a + beta*c; the multiplicity of u is then forced
to delta = y - alpha*b - beta*d.

The representations of x are (alpha0 + j*c/g, beta0 - j*a/g) for j >= 0,
where 0 <= alpha0 < c/g (``canonical_rep``), and each step lowers delta by
D/g.  So s is a member iff x*d <= y*c, x is representable and delta0 >= 0,
and then its factorizations are exactly the line

    (delta0 - j*D/g, alpha0 + j*c/g, beta0 - j*a/g),  0 <= j <= J,
    J = min(beta0 div (a/g), delta0 div (D/g)),

along which the length changes by (c - a - D)/g per step.  This yields
closed-form membership, extreme lengths and elasticity for every monoid; the
paper's star theorem (b*c - a*d = 1) is the case g = D = 1.

``_line`` returns this line as one plain value (start, step, count): the
factorizations are start + j*step for 0 <= j < count, with
start = (delta0, alpha0, beta0), step = (-D/g, c/g, -a/g) and count = J + 1,
so the length moves by sum(step) per step.  It is computed on ints, from the
constants g, c/g, a/g, D/g and (a/g)^-1 mod c/g that
the ``CanonicalMonoid3`` constructor sets once, as ``line_consts``.  Every
factorization handed out is multiplied back to s: by
``Factorization.checked`` in ``member3`` and ``extreme_factorizations``.
``_points``, which lists the whole line, checks it once on ints: both ends
multiply back and are nonnegative, the step is the kernel's primitive
vector, and no factorization lies just beyond either end.  It then fills
one flat int list by columns, each point's three multiplicities and its
length in turn, from j = J down to 0; ``cli`` keeps that list as the
listing of ``factorize --all`` and writes its text from it, and
``member3_general`` regroups it into ``Factorization``s.
``asymptotics.scan_multiples`` reads the two ends of the line itself and
checks them on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import NotMemberError, ZeroElementError
from .factorization import (
    PHI_OUT_OF_RANGE,
    X_NOT_REPRESENTABLE,
    Factorization,
    Membership,
)
from .monoids import CanonicalMonoid3
from .rationals import Vec2, _Frozen

__all__ = [
    "BRANCH_LOW",
    "BRANCH_HIGH",
    "ExtremeFactorizations",
    "canonical_rep",
    "member3",
    "member3_general",
    "extreme_factorizations",
    "elasticity3",
]

# Which side of slope a/b the element lies on; decides which bound fixes J.
BRANCH_LOW = "low-slope"  # x*b <= y*a: J = beta0 div (a/g)
BRANCH_HIGH = "high-slope"  # x*b >= y*a: J = delta0 div (D/g)


def canonical_rep(a: int, c: int, x: int) -> tuple[int, int] | None:
    """Solve x = alpha*a + beta*c with 0 <= alpha < c/g for g = gcd(a, c).

    Returns the pair (alpha, beta).  alpha is unique, and it is the least
    alpha of any representation, so None (g does not divide x, or beta < 0)
    decides that x is not a nonnegative combination of a and c at all.
    """
    if a < 1 or c < 1:
        raise ValueError("a and c must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    g = gcd(a, c)
    return _canonical_rep(a, c, g, c // g, pow(a // g, -1, c // g), x)


def _canonical_rep(a: int, c: int, g: int, c_g: int, inv: int, x: int) -> tuple[int, int] | None:
    """``canonical_rep`` given g, c/g and inv = (a/g)^-1 mod c/g, unchecked."""
    if x % g:
        return None
    alpha = (x // g) * inv % c_g
    beta = (x - alpha * a) // c
    return None if beta < 0 else (alpha, beta)


# (start, step, count): the factorization at j is start + j*step, 0 <= j < count.
_Line = tuple[tuple[int, int, int], tuple[int, int, int], int]


def _line(m: CanonicalMonoid3, x: int, y: int) -> Membership | _Line:
    """The factorization line of (x, y), or the non-member verdict with its reason."""
    if x * m.d > y * m.c:
        return Membership(member=False, factorizations=(), reason=PHI_OUT_OF_RANGE)
    g, c_g, a_g, d_g, inv = m.line_consts
    rep = _canonical_rep(m.a, m.c, g, c_g, inv, x)
    if rep is None:
        return Membership(member=False, factorizations=(), reason=X_NOT_REPRESENTABLE)
    alpha, beta = rep
    dlt = y - alpha * m.b - beta * m.d
    if dlt < 0:
        # x is representable, but even the canonical representation, which
        # has the largest delta, leaves no room for (0, 1).
        return Membership(member=False, factorizations=())
    return (dlt, alpha, beta), (-d_g, c_g, -a_g), min(beta // a_g, dlt // d_g) + 1


def member3(m: CanonicalMonoid3, s: Vec2) -> Membership:
    """Decide s in S; a member comes with its canonical factorization (j = 0).

    The full set is available through ``member3_general`` and its two ends
    through ``extreme_factorizations``.
    """
    line = _line(m, s.x, s.y)
    if isinstance(line, Membership):
        return line
    start, _, _ = line
    return Membership(member=True, factorization=Factorization.checked(start, m.gens, s))


def _points(m: CanonicalMonoid3, x: int, y: int) -> Membership | list[int]:
    """Every factorization of (x, y) from j = count - 1 down to 0, as one flat
    int list u, v, w, n, u, v, w, n, ... with n = u + v + w its length; or the
    non-member verdict.

    The line is checked once, on ints: its j = J end and then its j = 0 start
    are multiplied back against (0, 1), (a, b), (c, d) and sign-checked.  The
    step must be the kernel's primitive vector with alpha rising, and the
    points just before the start and just after the end must each have a
    negative entry.  The orthant is convex, so the points between the ends
    are factorizations and no factorization is missing.  Each column is then
    filled from one ``range``."""
    line = _line(m, x, y)
    if isinstance(line, Membership):
        return line
    (u, v, w), (du, dv, dw), count = line
    a, b, c, d, j = m.a, m.b, m.c, m.d, count - 1
    eu, ev, ew = end = u + j * du, v + j * dv, w + j * dw
    for pu, pv, pw in (end, (u, v, w)):
        if pv * a + pw * c != x or pu + pv * b + pw * d != y:
            raise ValueError(f"{(pu, pv, pw)} is not a factorization of ({x}, {y})")
        if pu < 0 or pv < 0 or pw < 0:
            raise ValueError(f"multiplicities must be nonnegative: {(pu, pv, pw)}")
    # A primitive kernel step is +-(-D/g, c/g, -a/g).  With the + sign the
    # point before the start leaves the orthant iff its alpha is negative, and
    # the point after the end iff its delta or its beta is; with the - sign
    # v >= dv holds and the line is refused.
    if (gcd(dv, dw) != 1 or dv * a + dw * c or du + dv * b + dw * d
            or v >= dv or eu >= -du and ew >= -dw):
        raise ValueError(f"{(u, v, w)} + j*{(du, dv, dw)}, 0 <= j < {count}, "
                         f"is not the whole factorization line of ({x}, {y})")
    n, dn = eu + ev + ew, du + dv + dw
    flat = [eu, ev, ew, n] * count
    flat[0::4] = range(eu, u - du, -du)
    flat[1::4] = range(ev, v - dv, -dv)
    flat[2::4] = range(ew, w - dw, -dw)
    if dn:
        flat[3::4] = range(n, n - count * dn, -dn)
    return flat


def member3_general(m: CanonicalMonoid3, s: Vec2) -> Membership:
    """Decide s in S and list every factorization, sorted by multiplicities.

    Sorted order is j = count - 1 down to 0, because delta falls as j grows;
    the witness is the first of them.
    """
    flat = _points(m, s.x, s.y)
    if isinstance(flat, Membership):
        return flat
    facts = tuple(map(Factorization, zip(flat[0::4], flat[1::4], flat[2::4])))
    return Membership(member=True, factorization=facts[0], factorizations=facts)


class ExtremeFactorizations(_Frozen):
    """Both ends of the factorization line of a member.

    ``fact_t0`` is the canonical factorization (t = 0) and ``fact_tmax`` the
    one at t = J.  Lengths differ by t_max*(c - a - D)/g, so which end is
    the short one depends on the sign of c - a - D.
    """

    _fields = ("branch", "t_max", "fact_t0", "fact_tmax")

    def __init__(
        self, branch: str, t_max: int, fact_t0: Factorization, fact_tmax: Factorization
    ) -> None:
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "t_max", t_max)
        object.__setattr__(self, "fact_t0", fact_t0)
        object.__setattr__(self, "fact_tmax", fact_tmax)

    @property
    def len_t0(self) -> int:
        return self.fact_t0.length

    @property
    def len_tmax(self) -> int:
        return self.fact_tmax.length


def extreme_factorizations(m: CanonicalMonoid3, s: Vec2) -> ExtremeFactorizations:
    """Closed-form extreme factorizations of a member.

    The branch is the slope of s against a/b: below it the t-range is bounded
    by beta, above it by delta, and on it both bounds are equal.
    """
    line = _line(m, s.x, s.y)
    if isinstance(line, Membership):
        raise NotMemberError(f"({s.x}, {s.y}) is not in the monoid ({line.reason})")
    (u, v, w), (du, dv, dw), count = line
    t_max, gens = count - 1, m.gens
    end = (u + t_max * du, v + t_max * dv, w + t_max * dw)
    return ExtremeFactorizations(
        branch=BRANCH_LOW if s.x * m.b <= s.y * m.a else BRANCH_HIGH,
        t_max=t_max,
        fact_t0=Factorization.checked((u, v, w), gens, s),
        fact_tmax=Factorization.checked(end, gens, s),
    )


def elasticity3(m: CanonicalMonoid3, s: Vec2) -> Fraction:
    """Elasticity (max length / min length) of a nonzero member."""
    if s.is_zero:
        raise ZeroElementError("elasticity of the zero element is undefined")
    ext = extreme_factorizations(m, s)
    lo, hi = sorted((ext.len_t0, ext.len_tmax))
    return Fraction(hi, lo)
