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

``_line`` returns the line as its two ends, one 6-tuple
(delta0, alpha0, beta0, delta_J, alpha_J, beta_J), computed on ints from the
constants g, c/g, a/g, D/g and (a/g)^-1 mod c/g that the ``CanonicalMonoid3``
constructor sets once, as ``line_consts``.  The points between the ends step
by (-D/g, c/g, -a/g), and there are (alpha_J - alpha0) div (c/g) + 1 of them.
``_is_line`` is the one check that two ends are the whole line of (x, y):
both are nonnegative and multiply back to (x, y), the first has alpha < c/g
(no point before it) and the second delta < D/g or beta < a/g (no point after
it).  Any two factorizations differ by a multiple of the step, so none lies
outside the ends.  ``_points`` and ``asymptotics.scan_multiples`` check the
ends they read with it; ``member3`` and ``extreme_factorizations`` hand out
``Factorization``s, which ``Factorization.checked`` multiplies back to s.
``_points`` lists the line for ``factorize --all`` as one flat int list,
filled by columns, each point's three multiplicities and its length, from
j = J down to 0; ``cli`` writes its text from that list, and
``member3_general`` regroups it into ``Factorization``s.
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


# (delta0, alpha0, beta0, delta_J, alpha_J, beta_J): the j = 0 and j = J ends.
_Line = tuple[int, int, int, int, int, int]


def _line(m: CanonicalMonoid3, x: int, y: int) -> Membership | _Line:
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


def _is_line(m: CanonicalMonoid3, ends: _Line, x: int, y: int) -> bool:
    """Whether ends are the j = 0 and j = J points of the line of (x, y): both
    nonnegative and multiplied back, the first with alpha < c/g (no point
    before it) and the second with delta < D/g or beta < a/g (no point after it)."""
    u, v, w, uj, vj, wj = ends
    m_a, m_b, m_c, m_d = m.a, m.b, m.c, m.d
    _, c_g, a_g, d_g, _ = m.line_consts
    return not (u < 0 or v < 0 or w < 0 or uj < 0 or vj < 0 or wj < 0 or v >= c_g
                or (uj >= d_g and wj >= a_g)
                or v * m_a + w * m_c != x or u + v * m_b + w * m_d != y
                or vj * m_a + wj * m_c != x or uj + vj * m_b + wj * m_d != y)


def _not_line(ends: _Line, x: int, y: int) -> ValueError:
    """The error for ends that fail ``_is_line``."""
    return ValueError(f"{ends[:3]} and {ends[3:]} are not the ends of the "
                      f"factorization line of ({x}, {y})")


def member3(m: CanonicalMonoid3, s: Vec2) -> Membership:
    """Decide s in S; a member comes with its canonical factorization (j = 0).

    The full set is available through ``member3_general`` and its two ends
    through ``extreme_factorizations``.
    """
    line = _line(m, s.x, s.y)
    if isinstance(line, Membership):
        return line
    return Membership(member=True, factorization=Factorization.checked(line[:3], m.gens, s))


def _points(m: CanonicalMonoid3, x: int, y: int) -> Membership | list[int]:
    """Every factorization of (x, y) from j = J down to 0, as one flat int
    list u, v, w, n, u, v, w, n, ... with n = u + v + w its length; or the
    non-member verdict.

    The two ends from ``_line`` must pass ``_is_line``; each column is then
    filled from one ``range`` between them, by the monoid's step."""
    ends = _line(m, x, y)
    if isinstance(ends, Membership):
        return ends
    if not _is_line(m, ends, x, y):
        raise _not_line(ends, x, y)
    u, v, w, eu, ev, ew = ends
    _, c_g, a_g, d_g, _ = m.line_consts
    count = (ev - v) // c_g + 1
    n, dn = eu + ev + ew, c_g - a_g - d_g
    flat = [eu, ev, ew, n] * count
    flat[0::4] = range(eu, u + d_g, d_g)
    flat[1::4] = range(ev, v - c_g, -c_g)
    flat[2::4] = range(ew, w + a_g, a_g)
    if dn:
        flat[3::4] = range(n, n - count * dn, -dn)
    return flat


def member3_general(m: CanonicalMonoid3, s: Vec2) -> Membership:
    """Decide s in S and list every factorization, sorted by multiplicities.

    Sorted order is j = J down to 0, because delta falls as j grows;
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
    return ExtremeFactorizations(
        branch=BRANCH_LOW if s.x * m.b <= s.y * m.a else BRANCH_HIGH,
        t_max=(line[4] - line[1]) // m.line_consts[1],
        fact_t0=Factorization.checked(line[:3], m.gens, s),
        fact_tmax=Factorization.checked(line[3:], m.gens, s),
    )


def elasticity3(m: CanonicalMonoid3, s: Vec2) -> Fraction:
    """Elasticity (max length / min length) of a nonzero member."""
    if s.is_zero:
        raise ZeroElementError("elasticity of the zero element is undefined")
    ext = extreme_factorizations(m, s)
    lo, hi = sorted((ext.len_t0, ext.len_tmax))
    return Fraction(hi, lo)
