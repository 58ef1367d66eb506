"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """An input is outside its documented domain."""


class FitError(RuntimeError):
    """The error-curve fit could not be performed (degenerate design matrix)."""


class NoDistanceFoundError(RuntimeError):
    """No patch width in the geometry ladder meets the target logical error rate."""


class NoProtocolError(RuntimeError):
    """No magic-state protocol in the table meets the required output infidelity."""
