"""Exceptions shared across the package."""


class RamtowerError(Exception):
    """Base class for all domain errors raised by ramtower."""


class InsufficientPrecision(RamtowerError):
    """A truncated series does not carry enough known digits to decide the result.

    Raised, for example, when asking for the valuation of a series whose known
    coefficients are all zero but whose precision is finite, or when a valuation
    in an Eisenstein extension, read off basis coefficients, is undecided: a
    coefficient known only to O(t^P) could undercut every determined term.
    """


class ParameterError(RamtowerError, ValueError):
    """A parameter names no mathematical object (a p that is not prime, a q
    that is not a power of p, an ill-formed filtration); the CLI exits 64."""


class FieldMismatch(RamtowerError):
    """Two operands live over different coefficient fields."""


class GuardViolation(RamtowerError):
    """A formula was evaluated outside the range where it is valid."""


class IntegralityError(RamtowerError):
    """A coefficient that must be integral at p has a leftover denominator.

    Carries the offending monomial so the failure is reproducible.
    """

    def __init__(self, message, monomial=None):
        super().__init__(message)
        self.monomial = monomial
