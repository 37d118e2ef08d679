"""Lattice points of N0^2 and their slopes.

``Vec2`` is a point of N0^2; two nonzero points are ordered by their slope
x/y, compared on the cross product.  ``_Frozen`` is the private base of every
value type in the package.  Every exact value the program computes (an
elasticity, a limit, a gap) is a plain ``fractions.Fraction``, which keeps it
in lowest terms and supplies equality, hashing, order and ``str`` ("7/5",
"3").  Nothing here approximates; ``cli`` converts a value for ``--approx``
display.

Everything in this module is immutable and pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["Vec2", "ExtRat", "slope_compare", "is_phi_minimal"]


class _Frozen:
    """An immutable value: what ``@dataclass(frozen=True)`` generated, without
    importing ``dataclasses`` or exec-ing methods for each class.

    A subclass names its fields once, in ``_fields``.  Its own ``__init__``
    sets them with ``object.__setattr__`` and then calls ``__post_init__``
    where the class has one.  Equality and hashing go by the field tuple,
    within one class only; ``repr`` names every field; a field can be neither
    set nor deleted.  Instances keep their ``__dict__``, so
    pickle and copy work as on any object.
    """

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Vec2(_Frozen):
    """A lattice point (x, y) with nonnegative integer coordinates."""

    _fields = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        self.__post_init__()

    def __post_init__(self):
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise TypeError("coordinates must be integers")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"coordinates must be nonnegative, got ({self.x}, {self.y})")

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __mul__(self, k: int) -> "Vec2":
        return Vec2(k * self.x, k * self.y)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


# The exact values the program computes are plain Fractions.  The old name
# stays only because bench/test_bench.py and bench/tracing.py still read it;
# it goes once ROADMAP item 1 drops it from both.
ExtRat = Fraction


def slope_compare(u: Vec2, v: Vec2) -> int:
    """Three-way comparison of the slopes x/y of nonzero u and v (y = 0 is
    the steepest), done on the cross product so it builds no rationals."""
    cross = u.x * v.y - v.x * u.y
    return (cross > 0) - (cross < 0)


def is_phi_minimal(v: Vec2) -> bool:
    """True when v is the shortest lattice point on its ray (coprime coordinates)."""
    return gcd(v.x, v.y) == 1
