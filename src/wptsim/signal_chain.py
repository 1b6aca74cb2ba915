"""Transmit-chain signal processing.

Multi-tone synthesis, DAC quantization, brick-wall low-pass filtering, the
mixer's complex envelope and the smooth-saturation amplifier's first zone.
Every operation acts on exactly one fundamental period of the waveform, so
each stage stays periodic and time averages over the period are exact. The
stages take and return plain arrays: the sampling plan (sizes, band) is
fixed once, by SystemModel, and the stages never see a sample rate.

After the low-pass filter the chain runs on the complex envelope a(t) of the
passband signal Re{a(t) e^{j w_c t}}. A memoryless odd amplifier f maps it,
at the carrier, to c1(|a|) a/|a| (the first zone of Blachman's Chebyshev
transform, IEEE Trans. Inf. Theory, 1971), with
c1(A) = (4/pi) int_0^{pi/2} f(A cos psi) cos psi dpsi, and its period-mean
output power is the mean of h(|a|), h(A) = (2/pi) int_0^{pi/2} f(A cos psi)^2
dpsi. Both are exact for any carrier, so no result depends on a passband
sample rate.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, require_finite

# Largest DAC or phase-shifter resolution: the 53-bit significand of a double.
# Up to it 2^bits - 1 is exact in float64, where the DAC step 2A/2^bits and
# decode_particle's level scale are computed; beyond it 2.0**bits overflows at
# 1024 bits and the int64 phase levels at 63.
MAX_BITS = 53

# The error budget of the envelope chain. The envelope holds
# ENVELOPE_SAMPLES_PER_TONE samples per tone (at least four tones' worth). The
# first zone at drive D = G|a|/A_s integrates over ZONE_POINTS points per
# carrier cycle at D <= 1 and twice that for each octave of drive above 1, so
# the rule keeps pace with the amplifier's knee, which narrows as 1/D. The
# chain reads c1 and h from a cubic table of ZONE_TABLE_NODES nodes over the
# whole drive range. Doubling any of the three moves p_out_dc and p_hpa by
# less than 1e-9 relative at K = 1 and 8 with tone amplitudes up to 1000 V
# (tests/test_envelope.py). The rectenna's log-mean of I0 reads the received
# envelope on the same M samples, so M bounds its error too, and reads i0e
# from a cubic table of ZONE_TABLE_NODES nodes, within 1e-12 relative of
# scipy's.
ENVELOPE_SAMPLES_PER_TONE = 48
ZONE_POINTS = 80
ZONE_TABLE_NODES = 8193
# The rule stops doubling at drive 2^10; above that (a drive the default DAC
# range stays 300 times below) c1 and h carry errors up to about 1e-6. The
# table is built 2^15 rule points at a time, a few hundred KiB of scratch.
ZONE_OCTAVES = 10
_TABLE_CHUNK = 2**15


def _as_multiple(rate: float, step: float, name: str) -> int:
    """Return rate/step (step > 0) as an exact positive integer or raise."""
    ratio = rate / step
    n = int(round(ratio)) if math.isfinite(ratio) else 0
    if n <= 0 or abs(ratio - n) > 1e-6:
        raise ConfigurationError(
            f"{name} = {rate} is not a positive integer multiple of the tone spacing {step}"
        )
    return n


def _check_tones(amplitudes: np.ndarray, phases: np.ndarray) -> None:
    # each test holds for the valid values, so NaN (false in every comparison) fails it
    if not (np.isfinite(amplitudes) & (amplitudes >= 0)).all():
        raise ConfigurationError("amplitudes must be finite and nonnegative")
    if not ((phases >= 0) & (phases < 2 * np.pi)).all():
        raise ConfigurationError("phases must lie in [0, 2*pi)")


def _real(values, name: str) -> np.ndarray:
    """values as an array of real numbers (bool, integer or float). Complex,
    string and object arrays are refused rather than cast, which would drop
    an imaginary part or fail inside numpy, and so are ragged nested lists."""
    try:
        values = np.asarray(values)
    except ValueError as exc:
        raise ConfigurationError(f"{name} must be a rectangular array, not ragged") from exc
    if values.dtype.kind not in "biuf":
        raise ConfigurationError(f"{name} must be real numbers, got {values.dtype} values")
    return values


def _as_floats(values, name: str) -> np.ndarray:
    """values as a float array of real numbers."""
    return _real(values, name).astype(float, copy=False)


def _as_levels(levels, bits: int) -> np.ndarray:
    """The phase levels as an int array. Each must be a whole number in
    [0, 2^bits - 1]; integral floats are accepted, fractions refused rather
    than truncated."""
    levels = _real(levels, "levels")
    top = 2**bits - 1
    if not ((levels >= 0) & (levels <= top) & (np.floor(levels) == levels)).all():
        raise ConfigurationError(f"levels must be whole numbers in [0, {top}]")
    return levels.astype(int)


def _angles(levels: np.ndarray, bits: int) -> np.ndarray:
    return 2.0 * np.pi * levels / 2.0**bits


@dataclass(frozen=True)
class ToneSet:
    """Amplitudes (volts) and phases (radians) of the equally spaced tones."""

    amplitudes: np.ndarray
    phases: np.ndarray
    tone_spacing: float

    def __post_init__(self):
        amplitudes = _as_floats(self.amplitudes, "amplitudes")
        phases = _as_floats(self.phases, "phases")
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "phases", phases)
        if amplitudes.ndim != 1 or amplitudes.shape != phases.shape:
            raise ConfigurationError("amplitudes and phases must be 1-D vectors of equal length")
        if amplitudes.size == 0:
            raise ConfigurationError("amplitudes must hold at least one tone")
        _check_tones(amplitudes, phases)
        require_finite(self)
        if not self.tone_spacing > 0:
            raise ConfigurationError("tone_spacing must be positive")

    @property
    def count(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class ChainConfig:
    """Hardware parameters of the transmit chain; the defaults are the paper's."""

    dac_bits: int = 3
    dac_range: float = 1.0  # volts; the converter clips to [-range, +range]
    dac_sample_rate: float = 100e6  # Hz
    hpa_gain: float = 10.0
    hpa_saturation: float = 10.0  # volts
    hpa_smoothness: float = 4.0
    ps_bits: int = 3
    ps_insertion_loss_db: float = 0.5
    # Hz, with no default, so no config key: the chain reads no passband rate.
    # Kept only for perfbench's computed_sizes, and goes when the harness
    # stops reading it
    sim_sample_rate: float = field(kw_only=True)

    def __post_init__(self):
        require_finite(self)
        try:
            loss = self.ps_insertion_loss
        except OverflowError:
            loss = math.inf
        if not 1.0 <= loss < math.inf:
            raise ConfigurationError(
                "ps_insertion_loss_db must be nonnegative and below about 3082 dB,"
                " where its linear power ratio overflows"
            )
        if not 1 <= self.dac_bits <= MAX_BITS:
            raise ConfigurationError(f"dac_bits must lie in [1, {MAX_BITS}]")
        positive = ("dac_range", "dac_sample_rate", "sim_sample_rate", "hpa_gain", "hpa_saturation")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        # quantize_dac's step; 2 dac_range overflows from about 9e307
        if not math.isfinite(2.0 * self.dac_range / 2.0**self.dac_bits):
            raise ConfigurationError(
                f"dac_range {self.dac_range:g} must leave a finite DAC step"
                " 2 dac_range / 2^dac_bits"
            )
        if self.hpa_smoothness < 1:
            raise ConfigurationError("hpa_smoothness must be >= 1")
        if not 1 <= self.ps_bits <= MAX_BITS:
            raise ConfigurationError(f"ps_bits must lie in [1, {MAX_BITS}]")

    @property
    def ps_insertion_loss(self) -> float:
        """The phase shifters' insertion loss as a linear power ratio, >= 1."""
        return 10.0 ** (self.ps_insertion_loss_db / 10.0)


@dataclass(frozen=True)
class PhaseWord:
    """Selected quantized level of each element's phase shifter."""

    levels: np.ndarray
    bits: int

    def __post_init__(self):
        require_finite(self)
        if not 1 <= self.bits <= MAX_BITS:
            raise ConfigurationError(f"bits must lie in [1, {MAX_BITS}]")
        levels = _real(self.levels, "levels")
        if levels.ndim != 1 or levels.size == 0:
            raise ConfigurationError("levels must be a nonempty 1-D vector")
        object.__setattr__(self, "levels", _as_levels(levels, self.bits))

    @property
    def count(self) -> int:
        return self.levels.size

    def angles(self) -> np.ndarray:
        """Rotation 2*pi*level/2^bits applied by each shifter."""
        return _angles(self.levels, self.bits)


def synthesize_multitone(amplitudes: np.ndarray, phases: np.ndarray, n: int) -> np.ndarray:
    """One n-sample period of (1/K) sum_k a_k e^{j(2 pi k t / n + phi_k)}, n >= K,
    per candidate: amplitudes and phases are (..., K), the result (..., n).

    Tone k is DFT bin k of the period, so one unnormalized inverse DFT of the
    bins a_k e^{j phi_k}, zero-padded to n, synthesizes it, exactly periodic
    by construction.
    """
    # scaled in place, so a grid chunk (261 KB of periods on the toy) holds
    # one copy of its periods, not two
    period = np.fft.ifft(amplitudes * np.exp(1j * phases), n=n, norm="forward")
    period /= amplitudes.shape[-1]
    return period


def _round_half_away(values: np.ndarray) -> np.ndarray:
    """Round half away from zero: the values' scratch (overwritten) holds the
    fraction, and one new buffer the rounded values.

    Symmetric about zero, unlike numpy's round-half-even. The fraction
    v - trunc(v) is exact, whereas trunc(v +- 0.5) rounds the largest double
    below 0.5 up because the sum rounds to 1.0. trunc keeps the sign of v, so
    a value below one half in magnitude rounds to a signed zero, as
    sign(v) * 0 would; adding 0.0 first makes -0.0 itself round to +0.0, as
    sign(-0.0) = 0 does. Besides the values, one sample-sized buffer is
    live, not two: a grid chunk's quantizer touches 261 KB less memory on the
    toy, which the C allocator otherwise returned and faulted in again every
    chunk.
    """
    values += 0.0
    whole = np.trunc(values)
    values -= whole
    np.abs(values, out=values)
    whole += np.copysign(values >= 0.5, whole, out=values)
    return whole


def quantize_dac(samples: np.ndarray, bits: int, full_scale: float) -> np.ndarray:
    """Saturating uniform quantizer with step 2A/2^bits, on complex samples.

    In-phase and quadrature components are quantized independently, in one
    pass over the (re, im) pairs; inputs beyond [-A, A] clip to the rails, so
    any drive level is well defined and overdrive shows up as distortion
    rather than an error.
    """
    step = 2.0 * full_scale / 2.0**bits
    pairs = np.ascontiguousarray(samples, dtype=complex).view(float)
    codes = np.clip(pairs, -full_scale, full_scale)
    codes /= step
    levels = _round_half_away(codes)
    levels *= step
    return levels.view(complex)


def lowpass_filter(samples: np.ndarray, tone_count: int) -> np.ndarray:
    """Ideal brick-wall low-pass of complex periods along the last axis: keep the
    DFT bins at offsets -K..K (mod n), the band the envelope is built from, and
    zero the rest (none when n <= 2K + 1)."""
    spectrum = np.fft.fft(samples)
    spectrum[..., tone_count + 1 : samples.shape[-1] - tone_count] = 0.0
    return np.fft.ifft(spectrum)


@functools.lru_cache(maxsize=16)
def band_bins(tone_count: int, n: int) -> np.ndarray:
    """The DFT bins of the band offsets -K..K in an n-point period (read-only:
    the array is shared)."""
    bins = np.arange(-tone_count, tone_count + 1) % n
    bins.flags.writeable = False
    return bins


def complex_envelope(baseband: np.ndarray, tone_count: int, samples: int) -> np.ndarray:
    """The low-pass filtered baseband period, resampled to `samples` points,
    along the last axis of a (..., n_dac) array.

    Offset k = -K..K of the band, the baseband's DFT bin k mod n_dac (the
    bins lowpass_filter keeps), is zero-padded to bin k mod M of an M-point
    period and one inverse DFT gives z(t), the complex envelope of the mixer
    output Re{z(t) e^{j w_c t}}. The filter and the mixer are one step: the
    input may be the DAC output or the filter's. When n_dac = 2K the Nyquist
    bin stands for both k = +-K and is split in half between them.
    """
    n_dac = baseband.shape[-1]
    bins = np.fft.fft(baseband).take(band_bins(tone_count, n_dac), axis=-1) / n_dac
    if n_dac == 2 * tone_count:
        bins[..., [0, -1]] *= 0.5
    spectrum = np.zeros((*baseband.shape[:-1], samples), dtype=complex)
    spectrum[..., band_bins(tone_count, samples)] = bins
    return np.fft.ifft(spectrum, norm="forward")


def _rapp_compression(drive: np.ndarray, smoothness: float) -> np.ndarray:
    """(1 + d^(2 beta))^(-1/(2 beta)) at drives d = G|x|/A_s >= 0.

    Above the knee it is evaluated as (1 + d^(-2 beta))^(-1/(2 beta)) / d, so
    the power term never overflows: r = d / max(d, 1)^2 is d below the knee
    and 1/d above it.
    """
    exponent = 2.0 * smoothness
    top = np.maximum(drive, 1.0)
    out = drive / top
    out /= top
    out **= exponent
    out += 1.0
    out **= -1.0 / exponent
    out /= top
    return out


def first_zone(
    drive: np.ndarray, smoothness: float, points: int
) -> tuple[np.ndarray, np.ndarray]:
    """c1(A)/(G A) and h(A)/A_s^2 of the Rapp amplifier at drives D = G A / A_s
    >= 0, by the P-point rule (P = points, a positive multiple of 4);
    _zone_table sizes P to each drive.

    Both depend on the drive alone and come from one (D, P/4) grid of
    compression factors c, since f(x) = G x c(G x / A_s):
    c1(A)/(G A) = 2 mean(c cos^2) and h(A)/A_s^2 = mean((d c)^2) over the
    cycle, d the grid's drives. The P-point mean is the P-point DFT of the
    amplifier output over one carrier cycle folded onto a quarter cycle, so
    c1 is its first harmonic and h its mean square. The ratio needs no
    division: at D = 0 it is 1, the small-signal gain over G.
    """
    # nodes cos(2 pi t / P), t = 0..P/4 - 1, weighted 4/P (half that at t = 0)
    # to fold the P-point mean over the cycle onto them: f is odd, and the
    # node at pi/2 has cos = 0 and adds nothing
    cosines = np.cos(2.0 * np.pi * np.arange(points // 4) / points)
    weights = np.full(points // 4, 4.0 / points)
    weights[0] *= 0.5
    drive = np.multiply.outer(drive, cosines)
    compression = _rapp_compression(drive, smoothness)
    ratio = compression @ (2.0 * weights * cosines**2)
    compression *= drive
    compression *= compression
    return ratio, compression @ weights


# Power coefficients in t of the cubic through f_{i-1}, f_i, f_{i+1}, f_{i+2}
# on [i, i + 1] (4-point Lagrange): rows t^0..t^3, columns the four nodes.
_LAGRANGE = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0 / 3.0, -0.5, 1.0, -1.0 / 6.0],
    [0.5, -1.0, 0.5, 0.0],
    [-1.0 / 6.0, 0.5, -0.5, 1.0 / 6.0],
])


def _cubic_pieces(values: np.ndarray) -> np.ndarray:
    """Power coefficients (4, n - 1) in t in [0, 1] of the cubic through the four
    nodes around each interval of a uniform table. A node beyond either end
    continues the quadratic through the last three."""
    first = 3.0 * (values[0] - values[1]) + values[2]
    last = 3.0 * (values[-1] - values[-2]) + values[-3]
    padded = np.concatenate([[first], values, [last]])
    return _LAGRANGE @ np.stack([padded[:-3], padded[1:-2], padded[2:-1], padded[3:]])


@functools.lru_cache(maxsize=8)
def _zone_table(
    smoothness: float, points: int = ZONE_POINTS, nodes: int = ZONE_TABLE_NODES
) -> np.ndarray:
    """Cubic pieces (4, 2, nodes - 1) of c1(A)/(G A) (1 + D) and h(A) / (A_s x)^2
    over x = D / (1 + D) in [0, 1], D = G A / A_s the drive.

    Both depend on the drive alone, and the scaling keeps them smooth, finite
    and away from zero on the whole range: they run from 1 and 1/2 at D = 0
    to 4/pi and 1 as D grows without bound. Built once per smoothness, at
    the first evaluation that needs it. _read_table reads the interval count
    from the table's shape and gathers one coefficient row table[k, f]
    (64 KiB at the default node count) at a time.
    """
    x = np.linspace(0.0, 1.0, nodes)
    drive = x[:-1] / (1.0 - x[:-1])
    octaves = np.minimum(np.ceil(np.log2(np.maximum(drive, 1.0))), ZONE_OCTAVES)
    rule = points * 2 ** octaves.astype(int)  # nondecreasing along the nodes
    ratio, power = np.empty_like(drive), np.empty_like(drive)
    start = 0
    while start < drive.size:
        size = int(rule[start])
        stop = min(
            int(np.searchsorted(rule, size, side="right")),
            start + max(1, _TABLE_CHUNK // size),
        )
        ratio[start:stop], power[start:stop] = first_zone(drive[start:stop], smoothness, size)
        start = stop
    scaled_ratio = np.append(ratio * (1.0 + drive), 4.0 / np.pi)
    scaled_power = np.concatenate([[0.5], power[1:] / x[1:-1] ** 2, [1.0]])
    # (power of t, function, interval): each coefficient row table[k, f] is
    # contiguous, so gathering it at the samples' intervals reads one block
    return np.stack([_cubic_pieces(scaled_ratio), _cubic_pieces(scaled_power)], axis=1)


def _read_table(table: np.ndarray, drive: np.ndarray):
    """Every function of a cubic table (4, F, intervals) over x = D/(1 + D) in
    [0, 1], read at drives D >= 0 (a float array, overwritten with x).

    Returns 1/(1 + D), x and one sample-shaped array per function. Each
    function's cubic in t is summed by Horner's rule, one coefficient row
    table[k, f] gathered at a time into one scratch buffer. interval lies in
    [0, intervals - 1], so mode "clip" gathers what "raise" would, without
    the buffered copy "raise" makes of an `out`; a NaN or infinite drive
    fails in the steps before the gather, under the caller's error state.
    """
    intervals = table.shape[-1]
    inverse = drive + 1.0
    np.divide(1.0, inverse, out=inverse)
    x = np.multiply(drive, inverse, out=drive)
    position = x * intervals
    interval = position.astype(np.intp)
    np.minimum(interval, intervals - 1, out=interval)
    t = np.subtract(position, interval, out=position)
    term = np.empty_like(t)
    values = []
    for f in range(table.shape[1]):
        value = table[3, f].take(interval, mode="clip")
        for k in (2, 1, 0):
            value *= t
            value += table[k, f].take(interval, out=term, mode="clip")
        values.append(value)
    return inverse, x, values


def amplify_envelope(
    envelope: np.ndarray, gain: float, saturation: float, smoothness: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The amplifier on the mixer's complex envelope, along the last axis.

    Returns the output envelope c1(|a|) a/|a| at the carrier and the
    period-mean input and output powers (into 1 ohm), mean |a|^2 / 2 and
    mean h(|a|), one per period. c1 and h are read from the first zone's
    table at each sample's drive: each function's cubic in t is summed by
    Horner's rule with one coefficient row of the table gathered at a time
    into one sample-shaped buffer, so a batch never holds the whole
    (4, 2, ...) gather, and the output is formed once that scratch is freed.
    The means are one dot product per period (`vecdot`), so a period's
    powers do not depend on the rest of a batch. The sample-shaped steps run
    in place, each rounding as its out-of-place form would.
    """
    n = envelope.shape[-1]
    # one buffer holds the amplitude |a|, then the drive, then x
    drive = np.abs(envelope)
    p_in = 0.5 * np.vecdot(drive, drive) / n
    drive *= gain
    drive /= saturation
    inverse, x, (ratio, scaled_power) = _read_table(_zone_table(float(smoothness)), drive)
    ratio *= gain  # (G c1) / (1 + D), rounded as gain * c1 * inverse
    ratio *= inverse
    # h(A) = (A_s x)^2 times the second function
    x *= x
    p_out = saturation**2 * np.vecdot(scaled_power, x) / n
    del drive, inverse, x, scaled_power
    return ratio * envelope, p_in, p_out


def default_sim_rate(carrier: float, bandwidth: float, tone_spacing: float) -> float:
    """Smallest multiple of the tone spacing at or above 2.5x (carrier + bandwidth).

    The chain runs on the complex envelope and reads no passband rate; this
    one only fills ChainConfig.sim_sample_rate from channel.rf_carrier.
    """
    target = 2.5 * (carrier + bandwidth)
    ratio = target / tone_spacing
    if not math.isfinite(ratio):
        raise ConfigurationError(
            f"one period at waveform.tone_spacing {tone_spacing} and channel.rf_carrier"
            f" {carrier} holds no finite number of samples"
        )
    return int(np.ceil(ratio - 1e-9)) * tone_spacing
