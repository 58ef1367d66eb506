"""Exception types, the one rule each for integer and real arguments, and the
library choices and defaults the CLI's parser shows without loading a layer."""

import math
import numbers

#: The choices of ``SolveOptions.precision``.
PRECISIONS = ("headline", "real")
#: The default ``AttemptCaps.n_rus``.
DEFAULT_N_RUS = 10


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


def real(value, name: str, least: float = -math.inf, most: float = math.inf,
         above: float = -math.inf, below: float = math.inf) -> float:
    """``value`` as a Python float: any real number, numpy's included but not a
    bool, with least <= value <= most and above < value < below, so finite.
    Anything else, a string, None or NaN too, is an ``InvalidParameterError``
    saying ``name=value!r must rule``, where the rule is the bounds in words,
    such as "lie in [0, 1)", "be positive and finite" or "be finite"."""
    if type(value) is float:  # the common case, tested first
        number = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int or Fraction beyond any float
            number = math.inf
    else:
        number = math.nan
    if not (above < number < below and least <= number <= most):
        raise InvalidParameterError(f"{name}={value!r} must {_bounds(least, most, above, below)}")
    return number


def real_fields(obj, names: tuple, least: float = -math.inf, most: float = math.inf,
                above: float = -math.inf, below: float = math.inf) -> None:
    """Store ``real`` of each field ``names`` of the frozen dataclass ``obj``; a
    float already in range is left as it is, without a call."""
    for name in names:
        value = getattr(obj, name)
        if not (type(value) is float and above < value < below and least <= value <= most):
            object.__setattr__(obj, name, real(value, name, least, most, above, below))


def _bounds(least: float, most: float, above: float, below: float) -> str:
    low, high = max(least, above), min(most, below)
    if high < math.inf:
        return f"lie in {'(' if above >= least else '['}{low:g}, {high:g}{')' if below <= most else ']'}"
    if low == -math.inf:
        return "be finite"
    if low == 0:
        return f"be {'positive' if above == 0 else 'nonnegative'} and finite"
    return f"be finite and {'>' if above >= least else '>='} {low:g}"
