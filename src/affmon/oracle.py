"""Brute-force factorization oracle.

``enumerate_factorizations`` finds every way to write a target as a
nonnegative integer combination of the given generators by bounded exhaustive
search: the multiplicity of a generator g can never exceed
min(target.x // g.x, target.y // g.y) over the coordinates where g is
positive, so the search space is finite and the enumeration is complete.

This module is deliberately independent of the closed-form solvers -- it
shares only the Vec2/Factorization value types -- so it can serve as ground
truth in tests.  The only liberties taken are orderings, solving the final
multiplicity by divisibility and the final two by Cramer's rule (looping one
of them only when the two generators are parallel), which prunes nothing that
could have succeeded.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import NotMemberError, ZeroElementError, ZeroGeneratorError
from .factorization import Factorization
from .rationals import Vec2, _Frozen

__all__ = ["FactorizationSet", "enumerate_factorizations", "elasticity_oracle"]


class FactorizationSet(_Frozen):
    """The complete factorization set of one target element."""

    _fields = ("target", "facts")

    def __init__(self, target: Vec2, facts: tuple[Factorization, ...]) -> None:
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "facts", facts)

    @property
    def member(self) -> bool:
        return bool(self.facts)

    @property
    def lengths(self) -> tuple[int, ...]:
        """Sorted multiset of factorization lengths."""
        return tuple(sorted(f.length for f in self.facts))


def _bound(rx: int, ry: int, gx: int, gy: int) -> int:
    # Highest multiplicity of (gx, gy) that fits under (rx, ry).
    if gx and gy:
        return min(rx // gx, ry // gy)
    return rx // gx if gx else ry // gy


def _solve_single(rx: int, ry: int, gx: int, gy: int) -> int | None:
    # The unique m with m * (gx, gy) == (rx, ry), if it exists; rx, ry >= 0.
    m = _bound(rx, ry, gx, gy)
    return m if m * gx == rx and m * gy == ry else None


def _pair_solutions(rx: int, ry: int, g: tuple[int, int], h: tuple[int, int]) -> list[tuple[int, int]]:
    # All (mg, mh) with mg * g + mh * h == (rx, ry); rx, ry >= 0.
    gx, gy = g
    hx, hy = h
    det = gx * hy - hx * gy
    if det:
        # Cramer's rule: the one rational solution, kept if it lies in N0^2.
        mg, rem_g = divmod(rx * hy - hx * ry, det)
        mh, rem_h = divmod(gx * ry - rx * gy, det)
        return [(mg, mh)] if rem_g == rem_h == 0 and mg >= 0 and mh >= 0 else []
    # Parallel: the search order puts the longer of the two first, so looping
    # g walks the smaller range.
    out = []
    for mg in range(_bound(rx, ry, gx, gy) + 1):
        mh = _solve_single(rx - mg * gx, ry - mg * gy, hx, hy)
        if mh is not None:
            out.append((mg, mh))
    return out


def enumerate_factorizations(gens: Sequence[Vec2], s: Vec2) -> FactorizationSet:
    """Every factorization of s over the given generators.

    Generators must be nonzero; any count >= 1 and any (even equal-slope or
    non-coprime) generators are accepted.  The zero target has exactly the
    empty factorization.  Results are sorted lexicographically by
    multiplicities, in the order the generators were given.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("at least one generator required")
    for g in gens:
        if g.is_zero:
            raise ZeroGeneratorError("(0, 0) is not a valid generator")

    # Internal search order: loop generators with positive x first (largest x
    # first, so ranges shrink fastest); leave vertical generators to be solved
    # by divisibility at the end.
    order = sorted(range(len(gens)), key=lambda i: (gens[i].x == 0, -gens[i].x, -gens[i].y))
    cols = [(gens[i].x, gens[i].y) for i in order]
    p = len(cols)
    found: list[tuple[int, ...]] = []

    def search(rx: int, ry: int, depth: int, prefix: tuple[int, ...]) -> None:
        if depth == p - 1:
            m = _solve_single(rx, ry, *cols[depth])
            if m is not None:
                found.append(prefix + (m,))
            return
        if depth == p - 2:
            for mg, mh in _pair_solutions(rx, ry, cols[depth], cols[depth + 1]):
                found.append(prefix + (mg, mh))
            return
        gx, gy = cols[depth]
        for m in range(_bound(rx, ry, gx, gy) + 1):
            search(rx - m * gx, ry - m * gy, depth + 1, prefix + (m,))

    search(s.x, s.y, 0, ())

    facts = []
    for internal in found:
        mults = [0] * p
        for pos, idx in enumerate(order):
            mults[idx] = internal[pos]
        facts.append(tuple(mults))
    facts.sort()
    return FactorizationSet(
        target=s,
        facts=tuple(Factorization.checked(m, gens, s) for m in facts),
    )


def elasticity_oracle(gens: Sequence[Vec2], s: Vec2) -> Fraction:
    """max length / min length over the enumerated factorization set."""
    if s.is_zero:
        raise ZeroElementError("elasticity of the zero element is undefined")
    fs = enumerate_factorizations(gens, s)
    if not fs.member:
        raise NotMemberError(f"{s} has no factorization")
    lengths = fs.lengths
    return Fraction(lengths[-1], lengths[0])
