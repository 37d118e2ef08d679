"""Exact arithmetic for affine submonoids of N0^2.

Membership, factorization enumeration, elasticity, and the asymptotic
elasticity of multiples, for monoids with two or three generators -- all in
exact integer/rational arithmetic, with a brute-force oracle for
cross-checking every closed form.

Each module declares its public names in its own ``__all__``; the package
re-exports all of them.
"""

from .errors import *
from .rationals import *
from .factorization import *
from .intlin import *
from .monoids import *
from .oracle import *
from .solve2 import *
from .solve3 import *
from .asymptotics import *
from .cli import *
from . import (
    errors, rationals, factorization, intlin, monoids, oracle, solve2, solve3, asymptotics, cli,
)

__version__ = "0.1.0"

__all__ = [
    name
    for module in (
        errors, rationals, factorization, intlin, monoids, oracle, solve2, solve3, asymptotics, cli,
    )
    for name in module.__all__
]
