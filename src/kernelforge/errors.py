"""Exception types shared across the package."""


class KernelForgeError(Exception):
    """Base class for every error this package raises on purpose."""


class ParameterError(KernelForgeError, ValueError):
    """An argument or configuration value is outside its legal range."""


class DataError(KernelForgeError, ValueError):
    """Input data violates a precondition (bad values, missing classes, degeneracy)."""


class ShapeError(DataError):
    """Matrix or index shapes do not line up."""


class ExprSyntaxError(DataError):
    """A kernel-expression string failed to parse."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NumericalError(KernelForgeError, RuntimeError):
    """A numerical routine failed (non-convergence, unstable solve)."""


class ConfigError(KernelForgeError, ValueError):
    """Run configuration is missing, malformed, or refers to absent files."""
