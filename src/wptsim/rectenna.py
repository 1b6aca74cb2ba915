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
evaluation; i0e is evaluated only at the table's nodes, by a port of the Cephes
library's i0e. The Wright omega function is a port of Algorithm 917
(Lawrence, Corless and Jeffrey, ACM TOMS 2012) for real arguments.
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, NumericalError, require_finite
from .signal_chain import ZONE_TABLE_NODES, _cubic_pieces, _read_table


@dataclass(frozen=True)
class RectennaParams:
    """Diode and load constants of the harvester; the defaults are the paper's."""

    source_resistance: float = 50.0  # ohm, antenna source (matched rectifier input)
    load_resistance: float = 1600.0  # ohm
    saturation_current: float = 5e-6  # A, diode reverse-bias saturation current
    thermal_voltage: float = 25.86e-3  # V
    ideality: float = 1.05

    def __post_init__(self):
        require_finite(self)
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ConfigurationError(f"{f.name} must be positive")
        if self.ideality < 1:
            raise ConfigurationError("ideality must be >= 1")
        # dc_output_voltage subtracts R_L I_0 and takes the log of the knee
        if not (
            self.load_resistance * self.saturation_current < math.inf
            and 0.0 < self.load_constant < math.inf
        ):
            raise ConfigurationError(
                f"saturation_current {self.saturation_current:g} and load_resistance"
                f" {self.load_resistance:g} put R_L I_0 or the load line's knee"
                " R_L I_0 / (ideality * thermal_voltage) out of floating-point range"
            )

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

    The real case of Algorithm 917 (Lawrence, Corless and Jeffrey, ACM TOMS
    2012): a starting guess on each of (-inf, -2), [-2, 1) and [1, inf), then
    two Fritsch-Shafer-Crowley steps. Below -50 omega is exp(log_x), and above
    1e20 it is log_x, to double precision; those are returned as they are, so
    no exp overflows and no log of zero is taken, and omega underflows to 0
    below about -745 without a warning.

    One value, a serial evaluation's, picks its range by branching, which is
    several times faster than an array's clamps and selects; both run the same
    floating-point operations on a value, so they agree bit for bit.
    """
    if np.ndim(log_x) == 0:
        x = np.float64(log_x)
        if not -50.0 <= x <= 1e20:  # NaN included
            return _omega_ends(x)
        if x < 1.0:
            w = np.exp(min(x, 2.0 * (x - 1.0) / 3.0))
        else:
            ln_x = np.log(x)
            w = x - ln_x + ln_x / x
        return _fsc_steps(x, w)
    inner = np.minimum(np.maximum(log_x, -50.0), 1e20)
    # min(x, 2 (x - 1) / 3) is x below -2 and 2 (x - 1) / 3 from -2 on; the
    # exp is exactly 1 from 1 on and the asymptotic form exactly 1 below it,
    # so their product is each range's guess
    below = np.minimum(inner, 1.0)
    above = np.maximum(inner, 1.0)
    log_above = np.log(above)
    w = np.exp(np.minimum(below, 2.0 * (below - 1.0) / 3.0))
    w *= above - log_above + log_above / above
    return np.where(inner == log_x, _fsc_steps(inner, w), _omega_ends(log_x))


def _omega_ends(x):
    """omega(x) outside [-50, 1e20], to double precision: exp(x) below, x above."""
    return np.maximum(np.exp(np.minimum(x, -50.0)), x)


def _fsc_steps(x, w):
    """Two Fritsch-Shafer-Crowley steps from the guess w toward omega(x),
    each with fourth-order convergence."""
    for _ in range(2):
        r = x - w - np.log(w)
        w1 = w + 1.0
        t = 2.0 * w1 * (w1 + 2.0 / 3.0 * r)
        w = w * (1.0 + r / w1 * (t - r) / (t - 2.0 * r))
    return w


_I0E_SMALL = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17,
    -2.43127984654795469359e-16, 1.71539128555513303061e-15,
    -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12,
    -1.72682629144155570723e-11, 9.67580903537323691224e-11,
    -5.18979560163526290666e-10, 2.65982372468238665035e-9,
    -1.30002500998624804212e-8, 6.04699502254191894932e-8,
    -2.67079385394061173391e-7, 1.11738753912010371815e-6,
    -4.41673835845875056359e-6, 1.64484480707288970893e-5,
    -5.75419501008210370398e-5, 1.88502885095841655729e-4,
    -5.76375574538582365885e-4, 1.63947561694133579842e-3,
    -4.32430999505057594430e-3, 1.05464603945949983183e-2,
    -2.37374148058994688156e-2, 4.93052842396707084878e-2,
    -9.49010970480476444210e-2, 1.71620901522208775349e-1,
    -3.04682672343198398683e-1, 6.76795274409476084995e-1,
)
_I0E_LARGE = (
    -7.23318048787475395456e-18, -4.83050448594418207126e-18,
    4.46562142029675999901e-17, 3.46122286769746109310e-17,
    -2.82762398051658348494e-16, -3.42548561967721913462e-16,
    1.77256013305652638360e-15, 3.81168066935262242075e-15,
    -9.55484669882830764870e-15, -4.15056934728722208663e-14,
    1.54008621752140982691e-14, 3.85277838274214270114e-13,
    7.18012445138366623367e-13, -1.79417853150680611778e-12,
    -1.32158118404477131188e-11, -3.14991652796324136454e-11,
    1.18891471078464383424e-11, 4.94060238822496958910e-10,
    3.39623202570838634515e-9, 2.26666899049817806459e-8,
    2.04891858946906374183e-7, 2.89137052083475648297e-6,
    6.88975834691682398426e-5, 3.36911647825569408990e-3,
    8.04490411014108831608e-1,
)


def _chebyshev(y, coefficients):
    """Cephes' chbevl: the Chebyshev series sum'_i c_i T_i(y / 2), highest
    coefficient first, by the three-term recurrence."""
    b0, b1 = coefficients[0], 0.0
    for c in coefficients[1:]:
        b2, b1 = b1, b0
        b0 = y * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0e(z: np.ndarray) -> np.ndarray:
    """exp(-z) I0(z) for z >= 0, the Cephes library's i0e step for step.

    The coefficients are those of i0.c in S. L. Moshier's Cephes Math
    Library, which scipy.special also evaluates: 30 of exp(-z) I0(z) on
    [0, 8], and 25 of exp(-z) sqrt(z) I0(z) on (8, inf) in 32/z.
    """
    out = np.empty_like(z)
    small = z <= 8.0
    out[small] = _chebyshev(z[small] / 2.0 - 2.0, _I0E_SMALL)
    large = z[~small]
    out[~small] = _chebyshev(32.0 / large - 2.0, _I0E_LARGE) / np.sqrt(large)
    return out


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
    scaled = np.append(_i0e(z) * np.sqrt(1.0 + z), 1.0 / math.sqrt(2.0 * math.pi))
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
    scale = math.sqrt(params.source_resistance) / (params.ideality * params.thermal_voltage)
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
    w = lambert_w0_log(c + math.log(c) + rhs_log)
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
    where those lie further apart). Bisection needs no solver library, so the
    oracle, like the model, imports no scipy.
    """
    if not np.isfinite(rhs_log):
        raise ConfigurationError("rhs_log must be finite")
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
