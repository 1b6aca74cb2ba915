"""Exception types shared across the package, one per failing exit code of the
CLI, and the finiteness and integrality check of the parameter records:
ConfigurationError (exit 3) refuses an input, be it a config key, a record's
field, a candidate or its shape; NumericalError (exit 4) is a computation that
failed on accepted inputs."""

import math
import numbers
from dataclasses import fields


class ConfigurationError(ValueError):
    """An input refused at the boundary: a value outside its range or domain,
    or inconsistent with the rest of the configuration."""


class NumericalError(ArithmeticError):
    """A numerical routine failed to produce a finite, converged result."""


def require_finite(record) -> None:
    """Refuse, naming it, the first float field of a dataclass record that is
    NaN or infinite, so the record's range checks compare finite numbers (every
    comparison with NaN is False, so `x <= 0` alone lets NaN through), or the
    first int field that is not a Python or numpy integer (a 1.5-bit word or
    4.5 particles is refused here, not run or met deep inside numpy; a bool,
    as in config loading, is refused too)."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type is float and not math.isfinite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value}")
        if f.type is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
