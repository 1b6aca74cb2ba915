"""Single-diode rectenna model.

The DC operating point solves a transcendental balance between the diode
exponential and the load line; the closed form uses the principal Lambert W
branch evaluated from the logarithm of its argument as the Wright omega
function, W(e^z) = omega(z), so realistic drive levels (exponents in the
thousands) never overflow. No Taylor truncation is applied anywhere.
"""

from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import brentq
from scipy.special import wrightomega

from .errors import DomainError, NumericalError
from .signal_chain import SampledSignal


@dataclass(frozen=True)
class RectennaParams:
    """Diode and load constants of the harvester."""

    source_resistance: float  # ohm, antenna source (matched rectifier input)
    load_resistance: float  # ohm
    saturation_current: float  # A, diode reverse-bias saturation current
    thermal_voltage: float  # V
    ideality: float

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise DomainError(f"{f.name} must be positive")
        if self.ideality < 1:
            raise DomainError("ideality factor must be >= 1")

    @property
    def load_constant(self) -> float:
        """R_L * I_0 / (eta * V_0), the dimensionless knee of the load line."""
        return (
            self.load_resistance
            * self.saturation_current
            / (self.ideality * self.thermal_voltage)
        )


@dataclass(frozen=True)
class HarvestResult:
    """DC operating point of the rectenna for one waveform period."""

    v_out_dc: float  # volts
    p_out_dc: float  # watts
    rhs_log: float  # log of the periodic mean of the diode exponential


def lambert_w0_log(log_x: float) -> float:
    """Principal-branch Lambert W of exp(log_x).

    Evaluated as the Wright omega function omega(log_x), the solution of
    w + ln w = log_x, which stays finite for log_x far beyond the point where
    exp(log_x) itself would overflow.
    """
    log_x = float(log_x)
    if not np.isfinite(log_x):
        raise DomainError("log-form argument must be finite")
    return float(wrightomega(log_x))


def lambert_w0(x: float) -> float:
    """Principal-branch Lambert W for nonnegative arguments.

    Satisfies w * exp(w) = x to a relative residual of about 1e-12 over the
    full double range; arguments too large to exponentiate should be passed
    through lambert_w0_log instead.
    """
    x = float(x)
    if x < 0 or np.isnan(x):
        raise DomainError("principal-branch evaluation requires x >= 0")
    if x == 0.0:
        return 0.0
    return lambert_w0_log(np.log(x))


def rhs_log_mean(received: SampledSignal, params: RectennaParams) -> float:
    """Log of the one-period mean of exp(sqrt(R_s) r(t) / (eta V_0)).

    Evaluated with log-sum-exp so hot diode drives stay finite.
    """
    samples = received.samples
    if np.iscomplexobj(samples):
        raise DomainError("rectenna input must be a real signal")
    scale = np.sqrt(params.source_resistance) / (params.ideality * params.thermal_voltage)
    exponents = scale * np.asarray(samples, dtype=float)
    shift = exponents.max(axis=-1)
    return float(shift + np.log(np.mean(np.exp(exponents - shift[..., None]), axis=-1)))


def dc_output_voltage(rhs_log: float, params: RectennaParams) -> float:
    """DC load voltage from the closed-form rectifier balance.

    The Lambert W argument c * e^c * e^rhs_log is handed over in log form
    (c + ln c + rhs_log), so the result is finite for any drive level.
    """
    if not np.isfinite(rhs_log):
        raise DomainError("rhs_log must be finite")
    c = params.load_constant
    w = lambert_w0_log(c + np.log(c) + rhs_log)
    return (
        params.ideality * params.thermal_voltage * w
        - params.load_resistance * params.saturation_current
    )


def harvested_power(v_out: float, load_resistance: float) -> float:
    """DC power delivered to the load."""
    if load_resistance <= 0:
        raise DomainError("load resistance must be positive")
    return v_out * v_out / load_resistance


def harvest_from_signal(received: SampledSignal, params: RectennaParams) -> HarvestResult:
    """Full harvest evaluation for one period of the received signal."""
    rhs_log = rhs_log_mean(received, params)
    v_out = dc_output_voltage(rhs_log, params)
    return HarvestResult(v_out, harvested_power(v_out, params.load_resistance), rhs_log)


def solve_rectifier_equation(rhs_log: float, params: RectennaParams) -> float:
    """Bracketed root of the implicit rectifier balance, as a verification oracle.

    Solves v/(eta V_0) + log1p(v/(R_L I_0)) = rhs_log directly, independent of
    the Lambert W path, to an absolute tolerance of 1e-12 V.
    """
    if not np.isfinite(rhs_log):
        raise DomainError("rhs_log must be finite")
    floor_v = params.load_resistance * params.saturation_current
    diode_v = params.ideality * params.thermal_voltage

    def residual(v):
        return v / diode_v + np.log1p(v / floor_v) - rhs_log

    lo = -floor_v * (1.0 - 1e-9)
    if residual(lo) >= 0:
        raise NumericalError("rectifier operating point fell below the load-line bracket")
    hi = max(diode_v, 1e-6)
    for _ in range(200):
        if residual(hi) > 0:
            break
        hi *= 2.0
    else:
        raise NumericalError("failed to bracket the rectifier operating point")
    return float(brentq(residual, lo, hi, xtol=1e-12))
