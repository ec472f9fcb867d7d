"""Exception types shared across the package, and the finiteness test that
turns an argument out of float range into a DomainError."""

import math


class GhaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GhaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PhaseUnavailable(GhaError):
    """The requested quantum phase does not exist for these parameters."""


class NonConvergence(GhaError, ArithmeticError):
    """An iterative routine failed to converge within its iteration cap."""


class BudgetExceeded(GhaError):
    """An adaptive computation hit its resource cap before converging."""


class NonFiniteValue(GhaError, ArithmeticError):
    """A computation overflowed, divided by zero or produced NaN or infinity."""


def _finite(x) -> bool:
    """math.isfinite(x), but False where x is too large for a float (an int
    past 2^1024), for which math.isfinite raises OverflowError."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False
