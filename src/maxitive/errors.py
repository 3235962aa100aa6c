"""Exception taxonomy shared by all modules."""


class MaxitiveError(Exception):
    """Base class for domain errors raised by this package."""


class OverlappingBlocks(MaxitiveError):
    """Two partition blocks share a ground element."""


class UncoveredElement(MaxitiveError):
    """A ground element belongs to no partition block."""


class EmptyBlock(MaxitiveError):
    """A partition block is empty."""


class ExplicitBudgetExceeded(MaxitiveError):
    """An exhaustive oracle was asked to enumerate beyond its stated budget."""


class NotAbsolutelyContinuous(MaxitiveError):
    """Residuation or density extraction requested outside the admissible region."""


class NoDensity(MaxitiveError):
    """No density reproduces the measure, although absolute continuity holds."""


class NonExactOperation(MaxitiveError):
    """Density extraction by residuation requires an exact operation."""


class NotMonotone(MaxitiveError):
    """A set function expected to be monotone is not."""


class NotNullAdditive(MaxitiveError):
    """A set function expected to be null-additive is not."""


class OracleMismatch(MaxitiveError):
    """A production routine and its brute-force oracle disagree."""


class NotOdotAbsolutelyContinuous(MaxitiveError):
    """The derived measure pair fails op-absolute continuity."""


class NegligibilityViolation(MaxitiveError):
    """The exceptional set of an associated-density pair is non-negligible."""


class DefiningPropertyFailed(MaxitiveError):
    """A constructed conditional does not satisfy its defining identity."""


class NotProbability(MaxitiveError):
    """A probability measure was required."""


class UnmappedValue(MaxitiveError):
    """A function value does not land in any atom of the codomain."""


class InvalidTruncation(MaxitiveError):
    """A truncation level is out of range."""
