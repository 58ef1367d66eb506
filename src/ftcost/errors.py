"""Exception types, the one rule each for integer and real arguments, the frozen
``Record`` base, and the choices and defaults the CLI shows without loading a layer."""

import itertools
import math
import numbers
import operator

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


def real_fields(obj, names: tuple, values: tuple, least: float = -math.inf,
                above: float = -math.inf, below: float = math.inf) -> None:
    """Store ``real`` of each of ``values`` in the field of the record ``obj``
    named in the same place of ``names``; a float already in range is stored
    as it is, without a call."""
    for name, value in zip(names, values):
        if not (type(value) is float and above < value < below and least <= value):
            value = real(value, name, least, math.inf, above, below)
        object.__setattr__(obj, name, value)


class Record:
    """A frozen record whose fields are its class's own annotations, in order.

    A default is a class attribute, and the default of its ``__init__`` parameter.
    A record that checks its fields defines an ``__init__`` that stores each with
    ``object.__setattr__``; the base's stores them as given, by position or keyword.
    It equals only a record of its class with equal fields, hashes as the field
    tuple, prints as ``Name(field=value!r, ...)``, and no field is assigned or deleted.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        # the field tuple in one C call; attrgetter of a single name returns the bare value
        get = operator.attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __init__(self, *values, **named):
        names = self._fields
        if named or len(values) != len(names):
            if len(values) + len(named) != len(names) or not named.keys() <= set(names[len(values):]):
                raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(names)}")
            values += tuple(map(named.__getitem__, names[len(values):]))
        # each call returns None, so any() makes them all, without a Python-level loop
        any(map(object.__setattr__, itertools.repeat(self), names, values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _bounds(least: float, most: float, above: float, below: float) -> str:
    low, high = max(least, above), min(most, below)
    if high < math.inf:
        return f"lie in {'(' if above >= least else '['}{low:g}, {high:g}{')' if below <= most else ']'}"
    if low == -math.inf:
        return "be finite"
    if low == 0:
        return f"be {'positive' if above == 0 else 'nonnegative'} and finite"
    return f"be finite and {'>' if above >= least else '>='} {low:g}"
