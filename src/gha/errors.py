"""Exception types shared across the package, and the two door checks for
public numeric arguments.

`_positive` admits a positive finite number and `_index` an integer (a type
with `__index__`) at or above its least value.  Both refuse an int too large
for a float, which would overflow later in float arithmetic, and both raise
`DomainError(f"{what}, got {x}")`: the message names the rule and the value,
or, for an int too long to print, its size (`_shown`).
"""

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


def _shown(x, form=str) -> str:
    """form(x) for a message, or the size of an int too long to print."""
    try:
        return form(x)
    except ValueError:  # an int over 4300 digits, which Python does not print
        return f"an int of {x.bit_length()} bits"


def _positive(x, what: str) -> None:
    """Raise DomainError unless x > 0 and x is a finite float or fits one."""
    if not (x > 0.0 and _finite(x)):
        raise DomainError(f"{what}, got {_shown(x)}")


def _index(n, what: str, least: int = 0) -> None:
    """Raise DomainError unless n is an integer, n ≥ least and n fits a float;
    a float n is refused even where it is integral."""
    if not (hasattr(n, "__index__") and n >= least and _finite(n)):
        raise DomainError(f"{what}, got {_shown(n, repr)}")
