"""Exception hierarchy for affmon.

Every exception carries a stable machine-readable ``code`` string; the CLI
echoes these codes in its JSON error payloads, so they are part of the public
interface and should not be renamed casually.
"""

from __future__ import annotations

__all__ = [
    "AffmonError",
    "BothZeroError",
    "NotPhiMinimalError",
    "StarRequiredError",
    "NotMemberError",
    "ZeroElementError",
    "PeriodicityViolatedError",
    "WrongBranchError",
    "ZeroGeneratorError",
    "DuplicateGeneratorError",
    "NotMinimallyGeneratedError",
    "MonoidParseError",
    "InputTooLargeError",
]


class AffmonError(Exception):
    """Base class for all affmon-specific errors."""

    code = "Error"


class BothZeroError(AffmonError):
    """gcd(0, 0) has no Bezout certificate."""

    code = "BothZero"


class NotPhiMinimalError(AffmonError):
    """A generator's coordinates share a common factor greater than 1."""

    code = "NotPhiMinimal"


class StarRequiredError(AffmonError):
    """The operation is only valid when b*c - a*d = 1."""

    code = "StarRequired"


class NotMemberError(AffmonError):
    """The element does not belong to the monoid."""

    code = "NotMember"


class ZeroElementError(AffmonError):
    """Elasticity of the zero element is undefined."""

    code = "ZeroElement"


class PeriodicityViolatedError(AffmonError):
    """The multiplier does not satisfy the divisibility precondition."""

    code = "PeriodicityViolated"


class WrongBranchError(AffmonError):
    """The element lies on the wrong side of the middle generator's slope."""

    code = "WrongBranch"


class ZeroGeneratorError(AffmonError):
    """(0, 0) generates nothing and is not allowed as a generator."""

    code = "ZeroGenerator"


class DuplicateGeneratorError(AffmonError):
    """The same generator was listed twice."""

    code = "DuplicateGenerator"


class NotMinimallyGeneratedError(AffmonError):
    """Some generator already lies in the monoid generated by the others."""

    code = "NotMinimallyGenerated"


class MonoidParseError(AffmonError):
    """Malformed monoid or vector text; ``offset`` points at the bad character."""

    code = "SyntaxError"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class InputTooLargeError(AffmonError):
    """An input is too large to work on: a coordinate with more digits than
    the CLI accepts, or a scan's k_max with more rows than a list can hold."""

    code = "InputTooLarge"
