"""Exception types shared across the package, and the field-type rule of its parameter classes."""


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


def check_field_types(params, ints=(), floats=()) -> None:
    """ParameterError unless each field of params named in ints holds a Python int (a tuple field: only ints)
    and none named in floats holds a bool; ``bool`` subclasses ``int``, so True would pass as 1 without notice."""
    for name in ints:
        value = getattr(params, name)
        pair = isinstance(value, tuple)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (value if pair else (value,))):
            raise ParameterError(f"{name} must {'hold ints' if pair else 'be an int'}, got {value!r}")
    for name in floats:
        value = getattr(params, name)
        if isinstance(value, bool):
            raise ParameterError(f"{name} must be a number, got {value!r}")
