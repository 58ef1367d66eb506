"""Exception types shared across the package, and the one rule for integer arguments."""

import math
import numbers


class InvalidParameterError(ValueError):
    """An input is outside its documented domain."""


class FitError(RuntimeError):
    """The error-curve fit could not be performed (degenerate design matrix)."""


class NoDistanceFoundError(RuntimeError):
    """No patch width in the geometry ladder meets the target logical error rate."""


class NoProtocolError(RuntimeError):
    """No magic-state protocol in the table meets the required output infidelity."""


def integer(value, name: str, least: int = 1, most: float = math.inf, even: bool = False,
            rule: str = "") -> int:
    """``value`` as a Python int: any integer in [least, most], numpy's included
    but not a bool, and even if ``even`` is set.  Anything else, a float such as
    2.0 too, is an ``InvalidParameterError`` saying ``name=value!r must be rule``,
    where ``rule`` defaults to "an integer >= least"."""
    if type(value) is int:  # the common case, tested first
        number = value
    elif isinstance(value, numbers.Integral) and not isinstance(value, bool):
        number = int(value)
    else:
        number = None
    if number is None or not least <= number <= most or even and number % 2:
        raise InvalidParameterError(f"{name}={value!r} must be {rule or f'an integer >= {least}'}")
    return number
