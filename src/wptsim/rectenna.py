"""Single-diode rectenna model.

The DC operating point solves a transcendental balance between the diode
exponential and the load line; the closed form uses the principal Lambert W
branch evaluated from the logarithm of its argument as the Wright omega
function, W(e^z) = omega(z), so realistic drive levels (exponents in the
thousands) never overflow. No Taylor truncation is applied anywhere.

The diode sees the received passband signal Re{b(t) e^{j w_c t}}. Over one
carrier cycle the mean of exp(c r) is I0(c|b|), so the period mean of the
diode exponential is the mean of I0(c|b(t)|) over the received envelope b.
I0 is read from a cubic table of i0e(z) sqrt(1 + z) over u = z/(1 + z) in
[0, 1], built with the amplifier's zone-table machinery at the first
evaluation; scipy's i0e is called only at the table's nodes.
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import i0e, wrightomega

from .errors import DomainError, NumericalError, require_finite
from .signal_chain import ZONE_TABLE_NODES, _cubic_pieces, _read_table


@dataclass(frozen=True)
class RectennaParams:
    """Diode and load constants of the harvester."""

    source_resistance: float  # ohm, antenna source (matched rectifier input)
    load_resistance: float  # ohm
    saturation_current: float  # A, diode reverse-bias saturation current
    thermal_voltage: float  # V
    ideality: float

    def __post_init__(self):
        require_finite(self, DomainError)
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
    """DC operating point of the rectenna for one waveform period, or one
    array entry per period of a batch."""

    v_out_dc: float  # volts
    p_out_dc: float  # watts
    rhs_log: float  # log of the periodic mean of the diode exponential


def lambert_w0_log(log_x):
    """Principal-branch Lambert W of exp(log_x), elementwise.

    Evaluated as the Wright omega function omega(log_x), the solution of
    w + ln w = log_x, which stays finite for log_x far beyond the point where
    exp(log_x) itself would overflow.
    """
    return wrightomega(log_x)


@functools.lru_cache(maxsize=1)
def _i0e_table() -> np.ndarray:
    """Cubic pieces (4, 1, ZONE_TABLE_NODES - 1) of T = i0e(z) sqrt(1 + z)
    over u = z / (1 + z) in [0, 1] (read-only: the array is shared).

    The scaling keeps T smooth and bounded on the whole range: it runs from
    1 at z = 0 to 1/sqrt(2 pi) as z grows without bound. The table reads
    i0e within 1e-12 relative of scipy's for z up to 1e15
    (tests/test_envelope.py).
    """
    u = np.linspace(0.0, 1.0, ZONE_TABLE_NODES)
    z = u[:-1] / (1.0 - u[:-1])
    scaled = np.append(i0e(z) * np.sqrt(1.0 + z), 1.0 / math.sqrt(2.0 * math.pi))
    table = _cubic_pieces(scaled)[:, None]
    table.flags.writeable = False
    return table


def rhs_log_mean(envelope: np.ndarray, params: RectennaParams):
    """Log of the one-period mean of I0(c |b(t)|), c = sqrt(R_s) / (eta V_0),
    one per period along the last axis of the received envelope b.

    That is the period mean of the diode exponential exp(c r(t)) for the
    passband signal r with complex envelope b. With each period's largest
    exponent shifted out, so hot diode drives stay finite, every sample adds
    I0(z) e^-shift = e^(z - shift) T(u) / sqrt(1 + z), T = i0e(z) sqrt(1 + z)
    read from its table at u = z / (1 + z).
    """
    scale = np.sqrt(params.source_resistance) / (params.ideality * params.thermal_voltage)
    exponents = np.abs(envelope)
    exponents *= scale
    shift = exponents.max(axis=-1)
    terms = exponents - shift[..., None]
    np.exp(terms, out=terms)
    # the table read overwrites the exponents with u; its scratch is freed on return
    inverse, _, (scaled,) = _read_table(_i0e_table(), exponents)
    terms *= scaled
    terms *= np.sqrt(inverse, out=inverse)
    return shift + np.log(terms.sum(axis=-1) / terms.shape[-1])


def dc_output_voltage(rhs_log, params: RectennaParams):
    """DC load voltage from the closed-form rectifier balance, elementwise.

    The Lambert W argument c * e^c * e^rhs_log is handed over in log form
    (c + ln c + rhs_log), so the result is finite for any finite drive
    level.
    """
    c = params.load_constant
    w = lambert_w0_log(c + np.log(c) + rhs_log)
    return (
        params.ideality * params.thermal_voltage * w
        - params.load_resistance * params.saturation_current
    )


def harvested_power(v_out, load_resistance: float):
    """DC power delivered to the load."""
    return v_out * v_out / load_resistance


def harvest_from_signal(received: np.ndarray, params: RectennaParams) -> HarvestResult:
    """Full harvest evaluation of each period of the received complex envelope
    along its last axis; a (..., n) envelope gives (...)-shaped results."""
    rhs_log = rhs_log_mean(received, params)
    v_out = dc_output_voltage(rhs_log, params)
    return HarvestResult(v_out, harvested_power(v_out, params.load_resistance), rhs_log)


def solve_rectifier_equation(rhs_log: float, params: RectennaParams) -> float:
    """Bracketed root of the implicit rectifier balance, as a verification oracle.

    Solves v/(eta V_0) + log1p(v/(R_L I_0)) = rhs_log directly, independent of
    the Lambert W path, by bisection to within 1e-12 V (or to adjacent doubles,
    where those lie further apart). Bisection needs no solver library, so
    calling the oracle loads no more of scipy than the model does.
    """
    if not np.isfinite(rhs_log):
        raise DomainError("rhs_log must be finite")
    floor_v = params.load_resistance * params.saturation_current
    diode_v = params.ideality * params.thermal_voltage

    def residual(v):
        return v / diode_v + math.log1p(v / floor_v) - rhs_log

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
    # the residual increases with v, so the root stays inside [lo, hi]
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if residual(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
