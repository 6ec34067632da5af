"""Error types shared across the package.

Every failure mode gets its own class so callers can react precisely; all of
them inherit from :class:`PGroupError`, and the three CLI-relevant buckets
(invalid input, budget exceeded) have intermediate bases.
"""
from __future__ import annotations


class PGroupError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(PGroupError, ValueError):
    """Malformed or mathematically inadmissible input (CLI exit code 2)."""


class BudgetExceededError(PGroupError):
    """An enumeration would exceed a configured size bound (CLI exit code 3)."""


class NonPrimeError(InvalidInputError):
    """The modulus supplied for a group was not a prime number."""


class NonIncreasingExponentsError(InvalidInputError):
    """Component exponents must be given in strictly increasing order."""


class ZeroMultiplicityError(InvalidInputError):
    """Every homocyclic component needs multiplicity >= 1."""


class MismatchedParentError(InvalidInputError):
    """Arithmetic mixed elements (or subgroups) of different parent groups."""


class GroupTooLargeError(BudgetExceededError):
    """Explicit element enumeration refused: group/subgroup over the cap."""


class RingTooLargeError(BudgetExceededError):
    """Endomorphism-ring or ideal enumeration refused: ring over the cap."""


class IndexOutOfRangeError(InvalidInputError, IndexError):
    """A position index fell outside the defined range of a sequence."""


class NotNormalizableError(InvalidInputError):
    """A pointwise indicator combination could not be made strictly increasing.

    Kept for contract completeness: the shipped min/max rules provably always
    yield strictly increasing output, so this is never raised by them.
    """


class NotAdmissibleError(InvalidInputError):
    """An indicator failed the gap/length/entry-range admissibility test."""


class NoAliasError(PGroupError):
    """No marker column holds the same subgroup as the requested cell."""


class NotFullyInvariantError(InvalidInputError):
    """The subgroup is not fully invariant (no canonical block form exists)."""


class UnknownFormatError(InvalidInputError):
    """An export was requested in a format this package does not produce."""


class ShapeViolationError(InvalidInputError):
    """A symbolic Ulm/basic-sequence description violated its shape rules."""


class IncomparableContextError(InvalidInputError):
    """Symbolic descriptors came from contexts that cannot be compared."""
