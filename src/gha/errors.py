"""Exception types shared across the package, the two door checks for
public numeric arguments and the one exit check for public results.

`_positive` admits a positive finite number and `_index` an integer (a type
with `__index__`) from its least to its most value, both included, with no
upper bound unless `most` is given.  Both refuse an int too large for a
float, which would overflow later in float arithmetic, and both raise
`DomainError(f"{what}, got {x}")`: the message names the rule and the value,
or, for an int too long to print, its size (`_shown`).

`_in_range` passes on a finite result and raises `NonFiniteValue` for inf or
NaN, with a message it formats only then, so a result in range costs one call
and no string work.
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


def _index(n, what: str, least: int = 0, most: float = math.inf) -> None:
    """Raise DomainError unless n is an integer, least ≤ n ≤ most and n fits a
    float; a float n is refused even where it is integral."""
    if not (hasattr(n, "__index__") and least <= n <= most and _finite(n)):
        raise DomainError(f"{what}, got {_shown(n, repr)}")


def _in_range(x: float, message: str, *parts) -> float:
    """x where it is finite, else NonFiniteValue(message.format(*parts))."""
    if math.isfinite(x):
        return x
    raise NonFiniteValue(message.format(*parts))
