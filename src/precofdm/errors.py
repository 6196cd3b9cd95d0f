"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside the domain an operation accepts."""
