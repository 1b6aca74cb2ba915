"""Exception types shared across the package, and the finiteness check of the
parameter records."""

import math
from dataclasses import fields


class ConfigurationError(ValueError):
    """Invalid or inconsistent configuration (rates, ranges, parameter paths)."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class NumericalError(ArithmeticError):
    """A numerical routine failed to produce a finite, converged result."""


def require_finite(record, error: type[ValueError]) -> None:
    """Raise `error` naming the first float field of a dataclass record that is
    NaN or infinite, so the record's range checks compare finite numbers (every
    comparison with NaN is False, so `x <= 0` alone lets NaN through)."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type is float and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")
