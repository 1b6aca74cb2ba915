"""Transmit-chain signal processing.

Multi-tone synthesis, DAC quantization, brick-wall low-pass filtering,
upconversion, the smooth-saturation amplifier, and analog phase shifting.
Every operation acts on exactly one fundamental period of the waveform, so
each stage stays periodic and time averages over the period are exact.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

BASEBAND = "baseband-complex"
PASSBAND = "passband-real"

# Largest DAC or phase-shifter resolution: the 53-bit significand of a double.
# Up to it 2^bits - 1 is exact in float64, where the DAC step 2A/2^bits and
# decode_particle's level scale are computed; beyond it 2.0**bits overflows at
# 1024 bits and the int64 phase levels at 63.
MAX_BITS = 53


def _as_multiple(rate: float, step: float, name: str) -> int:
    """Return rate/step as an exact positive integer or raise."""
    if step <= 0:
        raise ConfigurationError("tone spacing must be positive")
    ratio = rate / step
    n = int(round(ratio)) if math.isfinite(ratio) else 0
    if n <= 0 or abs(ratio - n) > 1e-6:
        raise ConfigurationError(
            f"{name} = {rate} is not a positive integer multiple of the tone spacing {step}"
        )
    return n


@dataclass(frozen=True)
class ToneSet:
    """Amplitudes (volts) and phases (radians) of the equally spaced tones."""

    amplitudes: np.ndarray
    phases: np.ndarray
    tone_spacing: float

    def __post_init__(self):
        amplitudes = np.asarray(self.amplitudes, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "phases", phases)
        if amplitudes.ndim != 1 or amplitudes.shape != phases.shape:
            raise DomainError("amplitudes and phases must be 1-D vectors of equal length")
        if amplitudes.size == 0:
            raise DomainError("at least one tone is required")
        if np.any(amplitudes < 0):
            raise DomainError("tone amplitudes must be nonnegative")
        if np.any((phases < 0) | (phases >= 2 * np.pi)):
            raise DomainError("tone phases must lie in [0, 2*pi)")
        if not self.tone_spacing > 0:
            raise DomainError("tone spacing must be positive")

    @property
    def count(self) -> int:
        return self.amplitudes.size

    @property
    def bandwidth(self) -> float:
        """Occupied baseband bandwidth, count * tone_spacing."""
        return self.count * self.tone_spacing


@dataclass(frozen=True)
class ChainConfig:
    """Hardware parameters of the transmit chain."""

    dac_bits: int
    dac_range: float  # volts; the converter clips to [-range, +range]
    dac_sample_rate: float  # Hz
    carrier: float  # Hz, mixer local oscillator
    hpa_gain: float
    hpa_saturation: float  # volts
    hpa_smoothness: float
    ps_bits: int
    ps_insertion_loss: float  # linear power ratio, >= 1
    sim_sample_rate: float  # Hz, passband simulation rate

    def __post_init__(self):
        if not 1 <= self.dac_bits <= MAX_BITS:
            raise ConfigurationError(f"dac_bits must lie in [1, {MAX_BITS}]")
        if self.dac_range <= 0:
            raise ConfigurationError("dac_range must be positive")
        if self.dac_sample_rate <= 0 or self.sim_sample_rate <= 0:
            raise ConfigurationError("sample rates must be positive")
        if self.carrier <= 0:
            raise ConfigurationError("carrier frequency must be positive")
        if self.hpa_gain <= 0 or self.hpa_saturation <= 0:
            raise ConfigurationError("amplifier gain and saturation must be positive")
        if self.hpa_smoothness < 1:
            raise ConfigurationError("amplifier smoothness must be >= 1")
        if not 1 <= self.ps_bits <= MAX_BITS:
            raise ConfigurationError(f"ps_bits must lie in [1, {MAX_BITS}]")
        if self.ps_insertion_loss < 1:
            raise ConfigurationError("insertion loss is a linear power ratio >= 1")


@dataclass(frozen=True)
class SampledSignal:
    """One fundamental period of a uniformly sampled waveform.

    The samples are one waveform, shape (n,), or a stack of waveforms that
    share the sampling grid, shape (N, n), one per row.
    """

    samples: np.ndarray
    sample_rate: float
    tone_spacing: float
    domain: str

    def __post_init__(self):
        samples = np.asarray(self.samples)
        object.__setattr__(self, "samples", samples)
        if self.domain not in (BASEBAND, PASSBAND):
            raise DomainError(f"unknown signal domain {self.domain!r}")
        if self.domain == PASSBAND and np.iscomplexobj(samples):
            raise DomainError("passband signals must be real-valued")
        n = _as_multiple(self.sample_rate, self.tone_spacing, "sample rate")
        if samples.ndim not in (1, 2) or samples.shape[-1] != n:
            raise DomainError(
                f"signal must hold exactly one period: expected {n} samples per row,"
                f" got shape {samples.shape}"
            )

    @property
    def period(self) -> float:
        return 1.0 / self.tone_spacing

    def frequencies(self) -> np.ndarray:
        """Frequency of each DFT bin, in numpy fft ordering."""
        return np.fft.fftfreq(self.samples.shape[-1], d=1.0 / self.sample_rate)


@dataclass(frozen=True)
class PhaseWord:
    """Selected quantized level of each element's phase shifter."""

    levels: np.ndarray
    bits: int

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=int)
        object.__setattr__(self, "levels", levels)
        if self.bits < 1:
            raise DomainError("phase shifter resolution must be at least 1 bit")
        if levels.ndim != 1 or levels.size == 0:
            raise DomainError("phase word must be a nonempty 1-D vector")
        top = 2**self.bits - 1
        if np.any((levels < 0) | (levels > top)):
            raise DomainError(f"phase levels must lie in [0, {top}]")

    @property
    def count(self) -> int:
        return self.levels.size

    def angles(self) -> np.ndarray:
        """Rotation 2*pi*level/2^bits applied by each shifter."""
        return 2.0 * np.pi * self.levels / 2.0**self.bits


def synthesize_multitone(tones: ToneSet, sample_rate: float) -> SampledSignal:
    """Evaluate the inverse-DFT multi-tone waveform over one period.

    The per-sample phase k*n/n_period is reduced modulo one revolution in
    integer arithmetic, which keeps the synthesized period exactly periodic.
    """
    n = _as_multiple(sample_rate, tones.tone_spacing, "sample rate")
    if sample_rate < 2 * tones.bandwidth:
        raise ConfigurationError(
            f"sample rate {sample_rate} below twice the baseband bandwidth {tones.bandwidth}"
        )
    turns = (np.arange(n)[:, None] * np.arange(tones.count)[None, :]) % n
    phase = 2.0 * np.pi * (turns / n) + tones.phases[None, :]
    samples = (np.exp(1j * phase) @ tones.amplitudes) / tones.count
    return SampledSignal(samples, sample_rate, tones.tone_spacing, BASEBAND)


def _round_half_away(values: np.ndarray) -> np.ndarray:
    # symmetric about zero, unlike numpy's round-half-even
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


def quantize_dac(signal: SampledSignal, bits: int, full_scale: float) -> SampledSignal:
    """Saturating uniform quantizer with step 2A/2^bits.

    In-phase and quadrature components are quantized independently; inputs
    beyond [-A, A] clip to the rails, so any drive level is well defined and
    overdrive shows up as distortion rather than an error.
    """
    if bits < 1:
        raise DomainError("quantizer resolution must be at least 1 bit")
    if full_scale <= 0:
        raise DomainError("quantizer full scale must be positive")
    step = 2.0 * full_scale / 2.0**bits

    def quantize(component):
        clamped = np.clip(component, -full_scale, full_scale)
        return _round_half_away(clamped / step) * step

    s = signal.samples
    if np.iscomplexobj(s):
        out = quantize(s.real) + 1j * quantize(s.imag)
    else:
        out = quantize(s)
    return SampledSignal(out, signal.sample_rate, signal.tone_spacing, signal.domain)


def lowpass_filter(signal: SampledSignal, cutoff: float) -> SampledSignal:
    """Ideal brick-wall low-pass: zero every DFT bin with |f| > cutoff."""
    if cutoff < 0:
        raise DomainError("cutoff must be nonnegative")
    spectrum = np.fft.fft(signal.samples)
    keep = np.abs(signal.frequencies()) <= cutoff * (1.0 + 1e-12)
    out = np.fft.ifft(spectrum * keep)
    if not np.iscomplexobj(signal.samples):
        out = out.real
    return SampledSignal(out, signal.sample_rate, signal.tone_spacing, signal.domain)


def _resample_exact(signal: SampledSignal, n_out: int) -> np.ndarray:
    """Zero-pad the one-period spectrum up to n_out samples (exact for
    band-limited periods; an even input's Nyquist bin is split in half)."""
    samples = signal.samples
    n_in = samples.size
    if n_out == n_in:
        return np.asarray(samples, dtype=complex)
    if n_out < n_in:
        raise ConfigurationError("resampling only raises the rate")
    spec_in = np.fft.fft(samples)
    spec = np.zeros(n_out, dtype=complex)
    half = n_in // 2
    if n_in % 2:
        spec[: half + 1] = spec_in[: half + 1]
        spec[n_out - half :] = spec_in[half + 1 :]
    else:
        spec[:half] = spec_in[:half]
        spec[n_out - half + 1 :] = spec_in[half + 1 :]
        spec[half] = 0.5 * spec_in[half]
        spec[n_out - half] = 0.5 * spec_in[half]
    return np.fft.ifft(spec) * (n_out / n_in)


def upconvert(
    signal: SampledSignal, carrier: float, sim_rate: float, bandwidth: float
) -> SampledSignal:
    """Resample the baseband period to the passband rate and mix onto the carrier.

    The carrier phase advances by the exact integer bin ratio per sample, so
    the passband product is exactly periodic over the same fundamental period.
    """
    if signal.domain != BASEBAND:
        raise DomainError("upconvert expects a complex baseband signal")
    m = _as_multiple(carrier, signal.tone_spacing, "carrier")
    n_out = _as_multiple(sim_rate, signal.tone_spacing, "simulation rate")
    if sim_rate < 2.0 * (carrier + bandwidth):
        raise ConfigurationError(
            f"simulation rate {sim_rate} violates Nyquist for carrier {carrier}"
            f" plus bandwidth {bandwidth}"
        )
    base = _resample_exact(signal, n_out)
    phase = 2.0 * np.pi * ((m * np.arange(n_out)) % n_out) / n_out
    out = np.real(base * np.exp(1j * phase))
    return SampledSignal(out, sim_rate, signal.tone_spacing, PASSBAND)


def rapp_amplifier(
    signal: SampledSignal, gain: float, saturation: float, smoothness: float
) -> SampledSignal:
    """Smooth saturating memoryless amplifier.

    y = G x (1 + (G|x|/A_s)^(2 beta))^(-1/(2 beta)); above the knee the
    compression factor is evaluated in reciprocal form so the power term never
    overflows, and |y| stays strictly below the saturation voltage.
    """
    if smoothness < 1:
        raise DomainError("smoothness must be >= 1")
    if gain <= 0 or saturation <= 0:
        raise DomainError("gain and saturation must be positive")
    x = signal.samples
    drive = gain * np.abs(x) / saturation
    exponent = 2.0 * smoothness
    compression = np.empty_like(drive)
    low = drive <= 1.0
    compression[low] = (1.0 + drive[low] ** exponent) ** (-1.0 / exponent)
    high = ~low
    compression[high] = (1.0 + drive[high] ** -exponent) ** (-1.0 / exponent) / drive[high]
    out = gain * x * compression
    # the true output is strictly below saturation but deep drives round up to
    # it in double precision; cap one ulp under the rail
    limit = np.nextafter(saturation, 0.0)
    if np.iscomplexobj(out):
        magnitude = np.abs(out)
        over = magnitude > limit
        if np.any(over):
            out[over] *= limit / magnitude[over]
    else:
        np.clip(out, -limit, limit, out=out)
    return SampledSignal(out, signal.sample_rate, signal.tone_spacing, signal.domain)


def apply_phase_shifters(
    signal: SampledSignal, word: PhaseWord, insertion_loss: float
) -> SampledSignal:
    """Split the amplified signal across the array through B-bit phase shifters.

    The rotation acts on the analytic envelope (an ideal RF phase shift at the
    carrier); each branch is scaled by 1/sqrt(insertion_loss * N). Returns the
    (N, n) stack of branches, one row per element.
    """
    if signal.domain != PASSBAND:
        raise DomainError("phase shifters act on the real passband signal")
    if insertion_loss < 1:
        raise DomainError("insertion loss is a linear power ratio >= 1")
    x = signal.samples
    # Hilbert transform: -j on every positive-frequency bin, none at DC or Nyquist
    spectrum = -1j * np.fft.rfft(x)
    spectrum[0] = 0.0
    if x.size % 2 == 0:
        spectrum[-1] = 0.0
    quadrature = np.fft.irfft(spectrum, n=x.size)
    scale = 1.0 / np.sqrt(insertion_loss * word.count)
    angles = word.angles()
    # Re{(x + j q) e^{-j angle}} = x cos(angle) + q sin(angle)
    branches = scale * (
        np.cos(angles)[:, None] * x[None, :] + np.sin(angles)[:, None] * quadrature[None, :]
    )
    return SampledSignal(branches, signal.sample_rate, signal.tone_spacing, PASSBAND)


def default_sim_rate(carrier: float, bandwidth: float, tone_spacing: float) -> float:
    """Smallest multiple of the tone spacing at or above 2.5x (carrier + bandwidth).

    The margin above Nyquist keeps the spectral resampling well conditioned.
    """
    target = 2.5 * (carrier + bandwidth)
    ratio = target / tone_spacing
    if not math.isfinite(ratio):
        raise ConfigurationError(
            f"one period at tone spacing {tone_spacing} holds no finite number of samples"
        )
    return int(np.ceil(ratio - 1e-9)) * tone_spacing
