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
    """Refuse, naming it, the first init field of a dataclass record that is a
    float field not holding a finite real number, so the record's range checks
    compare finite numbers (every comparison with NaN is False, so `x <= 0`
    alone lets NaN through), or an int field not holding a Python or numpy
    integer (a 1.5-bit word or 4.5 particles is refused here, not run or met
    deep inside numpy; a bool, as in config loading, is refused too). Each
    checked field is stored as a Python float or int, so a numpy scalar of a
    narrow dtype does not wrap or round in the record's arithmetic."""
    for f in fields(record):
        if not (f.init and f.type in (float, int)):
            continue
        value = getattr(record, f.name)
        if f.type is float and not math.isfinite(_as_real(value)):
            raise ConfigurationError(f"{f.name} must be a finite number, got {value!r}")
        if f.type is int and not _is_integer(value):
            raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
        object.__setattr__(record, f.name, f.type(value))


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _as_real(value) -> float:
    """A real number as a Python float, inf past the doubles; NaN for any other object."""
    try:
        return float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an integer past the doubles
        return math.inf
