"""Exception types shared across the package, and the finiteness and
integrality check of the parameter records."""

import math
import numbers
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
    comparison with NaN is False, so `x <= 0` alone lets NaN through), or the
    first int field that is not a Python or numpy integer (a 1.5-bit word or
    4.5 particles is refused here, not run or met deep inside numpy; a bool,
    as in config loading, is refused too)."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type is float and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")
        if f.type is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise error(f"{f.name} must be an integer, got {value!r}")
