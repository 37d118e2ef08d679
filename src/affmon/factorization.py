"""Multiplicity vectors over a fixed generator list, and membership verdicts."""

from __future__ import annotations

from typing import Optional, Sequence

from .rationals import Vec2, _Frozen

__all__ = [
    "Factorization",
    "Membership",
    "PHI_OUT_OF_RANGE",
    "DIVISIBILITY_FAILS",
    "X_NOT_REPRESENTABLE",
]

# Reason codes for not-member verdicts.
PHI_OUT_OF_RANGE = "PhiOutOfRange"
DIVISIBILITY_FAILS = "DivisibilityFails"
X_NOT_REPRESENTABLE = "XNotRepresentable"


class Factorization(_Frozen):
    """One factorization: how many copies of each generator are used."""

    _fields = ("mults",)

    def __init__(self, mults: tuple[int, ...]) -> None:
        object.__setattr__(self, "mults", mults)
        self.__post_init__()

    def __post_init__(self):
        if len(self.mults) < 1:
            raise ValueError("a factorization needs at least one multiplicity")
        if min(self.mults) < 0:
            raise ValueError(f"multiplicities must be nonnegative: {self.mults}")

    @property
    def length(self) -> int:
        return sum(self.mults)

    @classmethod
    def checked(cls, mults: Sequence[int], gens: Sequence[Vec2], target: Vec2) -> "Factorization":
        """Construct and verify that the multiplicities really hit the target.

        The multiply-back runs on plain ints; the constructor then rejects
        negative multiplicities.
        """
        if len(mults) != len(gens):
            raise ValueError("one multiplicity per generator required")
        x = y = 0
        for g, m in zip(gens, mults):
            x += m * g.x
            y += m * g.y
        if x != target.x or y != target.y:
            raise ValueError(f"multiplicities {tuple(mults)} map to ({x}, {y}), not {target}")
        return cls(tuple(mults))


class Membership(_Frozen):
    """Outcome of a membership test.

    ``factorization`` is the canonical witness when one is computed;
    ``factorizations`` is the complete list when the solver enumerates all of
    them (None means "not computed", not "none exist").
    """

    _fields = ("member", "factorization", "factorizations", "reason")

    def __init__(
        self,
        member: bool,
        factorization: Optional[Factorization] = None,
        factorizations: Optional[tuple[Factorization, ...]] = None,
        reason: Optional[str] = None,
    ) -> None:
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "factorization", factorization)
        object.__setattr__(self, "factorizations", factorizations)
        object.__setattr__(self, "reason", reason)
