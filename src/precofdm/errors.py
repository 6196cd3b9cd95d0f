"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside the domain an operation accepts."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced unusable output."""
