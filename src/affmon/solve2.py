"""Membership and factorization for monoids with two canonical generators.

For S = <(0,1), (a,b)> the answer is complete and unique: (x, y) belongs to S
exactly when its slope does not exceed a/b (cross-multiplied: x*b <= y*a) and
a divides x.  The single factorization is then (y - k*b) copies of (0,1) plus
k = x/a copies of (a,b), so every member has elasticity 1.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotMemberError, ZeroElementError
from .factorization import DIVISIBILITY_FAILS, PHI_OUT_OF_RANGE, Factorization, Membership
from .monoids import CanonicalMonoid2
from .rationals import Vec2

__all__ = ["member2", "elasticity2"]


def member2(m: CanonicalMonoid2, s: Vec2) -> Membership:
    """Decide s in S and return the unique factorization when it exists.

    Total function: non-members come back with a reason rather than an
    exception.  The zero vector is a member via the empty factorization.
    """
    if s.x * m.b > s.y * m.a:
        return Membership(member=False, factorizations=(), reason=PHI_OUT_OF_RANGE)
    if s.x % m.a:
        return Membership(member=False, factorizations=(), reason=DIVISIBILITY_FAILS)
    k = s.x // m.a
    fact = Factorization.checked((s.y - k * m.b, k), m.gens, s)
    return Membership(member=True, factorization=fact, factorizations=(fact,))


def elasticity2(m: CanonicalMonoid2, s: Vec2) -> Fraction:
    """Elasticity of a nonzero member; always exactly 1 in this dimension."""
    if s.is_zero:
        raise ZeroElementError("elasticity of the zero element is undefined")
    if not member2(m, s).member:
        raise NotMemberError(f"{s} is not in the monoid")
    return Fraction(1)
