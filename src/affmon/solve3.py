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

``line(m, s)`` returns that line as a ``Line``: s, the two ends ``start``
(j = 0) and ``end`` (j = J), and the monoid, from which ``step`` and
``count`` = J + 1 follow.  ``Line``'s constructor is the one check that two
ends are the whole line of s: both are nonnegative and multiply back to s,
the first has alpha < c/g (no point before it) and the second delta < D/g or
beta < a/g (no point after it).  Any two factorizations differ by a multiple
of the step, so none lies outside the ends, and no ``Line`` exists
unchecked.  The private ``_line`` computes the ends on ints, as one 6-tuple
(delta0, alpha0, beta0, delta_J, alpha_J, beta_J), from the constants g,
c/g, a/g, D/g and (a/g)^-1 mod c/g that the ``CanonicalMonoid3`` constructor
sets once, as ``line_consts``; ``line`` and ``asymptotics.scan_multiples``
build their ``Line``s from it.  Every three-generator answer reads a
``Line``: ``member3``'s witness is its start, ``elasticity3`` and
``factorize --extremes`` take the lengths of ``Line.ends``, two
``Factorization``s built by ``Factorization.checked``, and ``_points`` lists
it for ``factorize --all`` as one flat int list, filled by columns, each
point's three multiplicities and its length, from j = J down to 0; ``cli``
writes its text from that list, and ``member3_general`` regroups it into
``Factorization``s.
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

__all__ = ["Line", "canonical_rep", "line", "member3", "member3_general", "elasticity3"]


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


def _line(m: CanonicalMonoid3, x: int, y: int) -> Membership | tuple[int, ...]:
    """The two ends of the factorization line of (x, y), unchecked, or the
    non-member verdict with its reason."""
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
    j = min(beta // a_g, dlt // d_g)
    return dlt, alpha, beta, dlt - j * d_g, alpha + j * c_g, beta - j * a_g


class Line(_Frozen):
    """The factorization line of a member s = ``target``: every factorization
    of s, from ``start`` (j = 0, the canonical one) to ``end`` (j = J),
    ``step`` apart.

    The constructor raises ``ValueError`` unless ``start`` and ``end`` are the
    two ends of the line of ``target`` in ``monoid``, so a ``Line`` is checked
    once, when it is built.
    """

    _fields = ("target", "start", "end", "monoid")

    def __init__(
        self, target: Vec2, start: tuple[int, int, int], end: tuple[int, int, int],
        monoid: CanonicalMonoid3,
    ) -> None:
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "monoid", monoid)
        u, v, w = start
        uj, vj, wj = end
        x, y = target.x, target.y
        m_a, m_b, m_c, m_d = monoid.a, monoid.b, monoid.c, monoid.d
        _, c_g, a_g, d_g, _ = monoid.line_consts
        if (u < 0 or v < 0 or w < 0 or uj < 0 or vj < 0 or wj < 0 or v >= c_g
                or (uj >= d_g and wj >= a_g)
                or v * m_a + w * m_c != x or u + v * m_b + w * m_d != y
                or vj * m_a + wj * m_c != x or uj + vj * m_b + wj * m_d != y):
            raise ValueError(f"{start} and {end} are not the ends of the "
                             f"factorization line of ({x}, {y})")

    @property
    def step(self) -> tuple[int, int, int]:
        """(-D/g, c/g, -a/g), from each factorization to the next."""
        _, c_g, a_g, d_g, _ = self.monoid.line_consts
        return -d_g, c_g, -a_g

    @property
    def count(self) -> int:
        """J + 1, the number of factorizations."""
        return (self.end[1] - self.start[1]) // self.monoid.line_consts[1] + 1

    def ends(self) -> tuple[Factorization, Factorization]:
        """The j = 0 and j = J factorizations, each built by ``Factorization.checked``.

        Their lengths differ by J*(c - a - D)/g, so which one is the short
        one depends on the sign of c - a - D.
        """
        gens, s = self.monoid.gens, self.target
        return Factorization.checked(self.start, gens, s), Factorization.checked(self.end, gens, s)


def line(m: CanonicalMonoid3, s: Vec2) -> Line | Membership:
    """The factorization line of s, or the non-member verdict with its reason."""
    ends = _line(m, s.x, s.y)
    if isinstance(ends, Membership):
        return ends
    return Line(s, ends[:3], ends[3:], m)


def member3(m: CanonicalMonoid3, s: Vec2) -> Membership:
    """Decide s in S; a member comes with its canonical factorization, the
    start of its ``line``.

    The full set is available through ``member3_general``.
    """
    ln = line(m, s)
    if isinstance(ln, Membership):
        return ln
    return Membership(member=True, factorization=Factorization.checked(ln.start, m.gens, s))


def _points(ln: Line) -> list[int]:
    """Every factorization on the line from j = J down to 0, as one flat int
    list u, v, w, n, u, v, w, n, ... with n = u + v + w its length.

    Each column is filled from one ``range`` between the two ends, by the
    step."""
    u, v, w = ln.start
    eu, ev, ew = ln.end
    du, dv, dw = ln.step
    count = ln.count
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

    Sorted order is j = J down to 0, because delta falls as j grows;
    the witness is the first of them.
    """
    ln = line(m, s)
    if isinstance(ln, Membership):
        return ln
    flat = _points(ln)
    facts = tuple(map(Factorization, zip(flat[0::4], flat[1::4], flat[2::4])))
    return Membership(member=True, factorization=facts[0], factorizations=facts)


def elasticity3(m: CanonicalMonoid3, s: Vec2) -> Fraction:
    """Elasticity (max length / min length) of a nonzero member: the ratio
    of the lengths of its line's two ends."""
    if s.is_zero:
        raise ZeroElementError("elasticity of the zero element is undefined")
    ln = line(m, s)
    if isinstance(ln, Membership):
        raise NotMemberError(f"({s.x}, {s.y}) is not in the monoid ({ln.reason})")
    lo, hi = sorted(f.length for f in ln.ends())
    return Fraction(hi, lo)
