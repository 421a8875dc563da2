"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Configuration document is malformed or violates the schema."""


class DomainError(ValueError):
    """Evaluation requested outside the declared domain of a potential."""


class NonFiniteError(ArithmeticError):
    """A sampled value came out non-finite; carries the offending location."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge.

    ``partial`` holds the best value obtained so far.
    """

    def __init__(self, message, partial=None, interval=None):
        super().__init__(message)
        self.partial = partial
        self.interval = interval


class MatrixSizeError(RuntimeError):
    """Assembled system exceeds the configured dense-dimension ceiling."""


class NumericalError(RuntimeError):
    """Inertia computation could not be completed reliably."""


class VerificationFailure(RuntimeError):
    """A verification suite found a violated invariant."""
