"""Exact arithmetic for affine submonoids of N0^2.

Membership, factorization enumeration, elasticity, and the asymptotic
elasticity of multiples, for monoids with two or three generators -- all in
exact integer/rational arithmetic, with a brute-force oracle for
cross-checking every closed form.

Each module declares its public names in its own ``__all__``; the package
re-exports all of them lazily (PEP 562).  ``import affmon`` imports no
submodule; ``from affmon import X`` or ``affmon.X`` imports the module that
defines X on first use, and ``from affmon import *`` imports them all.
Nothing is cached in the package namespace, so each lookup reads the
defining module.  The command line (``affmon.cli``) imports the solvers
eagerly, ``oracle`` only for the ``oracle`` command and ``asymptotics`` only
for ``limit`` and ``scan``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the module that defines it, in the modules' own
# ``__all__`` order; tests check that this agrees with every ``__all__``.
_HOMES = {
    name: module
    for module, names in {
        "errors": "AffmonError BothZeroError NotPhiMinimalError StarRequiredError "
        "NotMemberError ZeroElementError PeriodicityViolatedError WrongBranchError "
        "ZeroGeneratorError DuplicateGeneratorError NotMinimallyGeneratedError "
        "MonoidParseError InputTooLargeError",
        "rationals": "Vec2 ExtRat slope_compare is_phi_minimal",
        "factorization": "Factorization Membership PHI_OUT_OF_RANGE DIVISIBILITY_FAILS "
        "X_NOT_REPRESENTABLE",
        "intlin": "UniMat2 ext_gcd det_divisors d2_test D2_NOT_MEMBER D2_INCONCLUSIVE",
        "monoids": "CanonicalMonoid2 CanonicalMonoid3 Monoid canonicalize canonical_coords "
        "validate_minimal_generation",
        "oracle": "FactorizationSet enumerate_factorizations elasticity_oracle",
        "solve2": "member2 elasticity2",
        "solve3": "Line canonical_rep line member3 member3_general elasticity3",
        "asymptotics": "LimitLFT tau rho_special_ac rho_special_c rho_limit "
        "scan_multiples",
        "cli": "Query Report SCAN_CSV_HEADER parse_monoid parse_vector run main",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(_HOMES.values())


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(_import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name == "__all__":
        return list(_HOMES)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
