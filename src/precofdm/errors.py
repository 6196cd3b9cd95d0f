"""Exception types shared across the package, and the whole-number check."""
from numbers import Integral


class ParameterError(ValueError):
    """An argument is outside the domain an operation accepts."""


def check_whole(name: str, value, least: int) -> None:
    """``ParameterError`` unless ``value`` is a whole number (a Python or
    numpy integer, not a float that holds one) of at least ``least``."""
    if not isinstance(value, Integral):
        raise ParameterError(f"{name} must be a whole number, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
