"""Exception types shared across the package, and the whole-number check."""
from numbers import Integral


class ParameterError(ValueError):
    """An argument is outside the domain an operation accepts."""


def check_whole(name: str, value, least: int) -> int:
    """``value`` as a Python int, or ``ParameterError`` unless it is a whole
    number (a Python or numpy integer, not a float that holds one) of at
    least ``least``.  Callers keep the returned int: size arithmetic on a
    narrow numpy integer would wrap."""
    if not isinstance(value, Integral):
        raise ParameterError(f"{name} must be a whole number, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return int(value)
