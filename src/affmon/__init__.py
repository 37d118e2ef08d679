"""Exact arithmetic for affine submonoids of N0^2.

Membership, factorization enumeration, elasticity, and the asymptotic
elasticity of multiples, for monoids with two or three generators -- all in
exact integer/rational arithmetic, with a brute-force oracle for
cross-checking every closed form.
"""

from .errors import (
    AffmonError,
    BothZeroError,
    DuplicateGeneratorError,
    MonoidParseError,
    NegativeResultError,
    NormalizationEscapesConeError,
    NotMemberError,
    NotMinimallyGeneratedError,
    NotPhiMinimalError,
    PeriodicityViolatedError,
    StarRequiredError,
    WrongBranchError,
    ZeroElementError,
    ZeroGeneratorError,
    ZeroVectorError,
)
from .rationals import INF, ONE, ZERO, ExtRat, Vec2, compare, is_phi_minimal, mediant, phi, slope_compare
from .factorization import (
    DIVISIBILITY_FAILS,
    PHI_OUT_OF_RANGE,
    X_NOT_REPRESENTABLE,
    Factorization,
    Membership,
    apply_mults,
)
from .intlin import Mat2xP, UniMat2, d2_test, det_divisors, ext_gcd, row_swapped_hnf
from .monoids import (
    CanonicalMonoid2,
    CanonicalMonoid3,
    Monoid,
    canonical_coords,
    canonicalize,
    validate_minimal_generation,
)
from .oracle import FactorizationSet, elasticity_oracle, enumerate_factorizations
from .solve2 import elasticity2, member2
from .solve3 import (
    BRANCH_HIGH,
    BRANCH_LOW,
    CanonicalRep,
    ExtremeFactorizations,
    canonical_rep,
    elasticity3,
    extreme_factorizations,
    member3,
    member3_general,
)
from .asymptotics import (
    SCAN_CSV_HEADER,
    LimitLFT,
    ScanRow,
    rho_limit,
    rho_special_ac,
    rho_special_c,
    scan_multiples,
    tau,
)
from .cli import Query, Report, main, parse_monoid, parse_vector, run

__version__ = "0.1.0"

__all__ = [
    "AffmonError",
    "BothZeroError",
    "BRANCH_HIGH",
    "BRANCH_LOW",
    "CanonicalMonoid2",
    "CanonicalMonoid3",
    "CanonicalRep",
    "compare",
    "canonical_coords",
    "canonical_rep",
    "canonicalize",
    "d2_test",
    "det_divisors",
    "DIVISIBILITY_FAILS",
    "DuplicateGeneratorError",
    "elasticity2",
    "elasticity3",
    "elasticity_oracle",
    "enumerate_factorizations",
    "ext_gcd",
    "ExtRat",
    "ExtremeFactorizations",
    "extreme_factorizations",
    "Factorization",
    "FactorizationSet",
    "INF",
    "is_phi_minimal",
    "apply_mults",
    "LimitLFT",
    "main",
    "Mat2xP",
    "mediant",
    "member2",
    "member3",
    "member3_general",
    "Membership",
    "Monoid",
    "MonoidParseError",
    "NegativeResultError",
    "NormalizationEscapesConeError",
    "NotMemberError",
    "NotMinimallyGeneratedError",
    "NotPhiMinimalError",
    "ONE",
    "parse_monoid",
    "parse_vector",
    "PeriodicityViolatedError",
    "phi",
    "PHI_OUT_OF_RANGE",
    "Query",
    "Report",
    "rho_limit",
    "rho_special_ac",
    "rho_special_c",
    "row_swapped_hnf",
    "run",
    "SCAN_CSV_HEADER",
    "scan_multiples",
    "ScanRow",
    "slope_compare",
    "StarRequiredError",
    "tau",
    "UniMat2",
    "validate_minimal_generation",
    "Vec2",
    "WrongBranchError",
    "X_NOT_REPRESENTABLE",
    "ZERO",
    "ZeroElementError",
    "ZeroGeneratorError",
    "ZeroVectorError",
]
