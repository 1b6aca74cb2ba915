"""Transmit-chain signal processing.

Multi-tone synthesis, DAC quantization, brick-wall low-pass filtering,
upconversion and the smooth-saturation amplifier.
Every operation acts on exactly one fundamental period of the waveform, so
each stage stays periodic and time averages over the period are exact. The
stages take and return plain arrays: the sampling plan (sizes, carrier bin,
band) is fixed once, by SystemModel, and the stages never see a sample rate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

# Largest DAC or phase-shifter resolution: the 53-bit significand of a double.
# Up to it 2^bits - 1 is exact in float64, where the DAC step 2A/2^bits and
# decode_particle's level scale are computed; beyond it 2.0**bits overflows at
# 1024 bits and the int64 phase levels at 63.
MAX_BITS = 53


def _as_multiple(rate: float, step: float, name: str) -> int:
    """Return rate/step (step > 0) as an exact positive integer or raise."""
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


def synthesize_multitone(tones: ToneSet, n: int) -> np.ndarray:
    """One n-sample period of (1/K) sum_k a_k e^{j(2 pi k t / n + phi_k)}, n >= K.

    Tone k is DFT bin k of the period, so one unnormalized inverse DFT of the
    bins a_k e^{j phi_k} synthesizes it, exactly periodic by construction.
    """
    bins = np.zeros(n, dtype=complex)
    bins[: tones.count] = tones.amplitudes * np.exp(1j * tones.phases)
    return np.fft.ifft(bins, norm="forward") / tones.count


def _round_half_away(values: np.ndarray) -> np.ndarray:
    # symmetric about zero, unlike numpy's round-half-even; the fraction
    # |v| - floor(|v|) is exact, whereas floor(|v| + 0.5) rounds the largest
    # double below 0.5 up because the sum rounds to 1.0
    magnitude = np.abs(values)
    whole = np.floor(magnitude)
    return np.sign(values) * (whole + (magnitude - whole >= 0.5))


def quantize_dac(samples: np.ndarray, bits: int, full_scale: float) -> np.ndarray:
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

    if np.iscomplexobj(samples):
        return quantize(samples.real) + 1j * quantize(samples.imag)
    return quantize(samples)


def lowpass_filter(samples: np.ndarray, tone_count: int) -> np.ndarray:
    """Ideal brick-wall low-pass: keep the DFT bins at offsets -K..K (mod n), the
    bins upconvert reads, and zero the rest (none when n <= 2K + 1)."""
    spectrum = np.fft.fft(samples)
    spectrum[tone_count + 1 : samples.size - tone_count] = 0.0
    out = np.fft.ifft(spectrum)
    return out if np.iscomplexobj(samples) else out.real


def upconvert(
    baseband: np.ndarray, tone_count: int, carrier_bin: int, n_sim: int
) -> np.ndarray:
    """Mix the baseband period onto carrier bin m of a real n_sim-sample period.

    Offset k = -K..K of the band, the baseband's DFT bin k mod n_dac, is
    written at rfft bin m + k, scaled by n_sim / (2 n_dac); one irfft gives
    Re{z(t) e^{j 2 pi m t / n_sim}} with z the band-limited baseband period
    at n_sim samples. When n_dac = 2K the Nyquist bin stands for both k = +-K
    and is split in half between them. SystemModel keeps the band strictly
    inside (0, n_sim / 2).
    """
    n_dac = baseband.size
    offsets = np.arange(-tone_count, tone_count + 1)
    bins = np.fft.fft(baseband)[offsets % n_dac] * (n_sim / (2 * n_dac))
    if n_dac == 2 * tone_count:
        bins[[0, -1]] *= 0.5
    spectrum = np.zeros(n_sim // 2 + 1, dtype=complex)
    spectrum[carrier_bin + offsets] = bins
    return np.fft.irfft(spectrum, n=n_sim)


def rapp_amplifier(
    x: np.ndarray, gain: float, saturation: float, smoothness: float
) -> np.ndarray:
    """Smooth saturating memoryless amplifier.

    y = G x (1 + (G|x|/A_s)^(2 beta))^(-1/(2 beta)); above the knee the
    compression factor is evaluated in reciprocal form so the power term never
    overflows, and |y| stays strictly below the saturation voltage.
    """
    if np.iscomplexobj(x):
        raise DomainError("the amplifier acts on the real passband signal")
    if smoothness < 1:
        raise DomainError("smoothness must be >= 1")
    if gain <= 0 or saturation <= 0:
        raise DomainError("gain and saturation must be positive")
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
    np.clip(out, -limit, limit, out=out)
    return out


def default_sim_rate(carrier: float, bandwidth: float, tone_spacing: float) -> float:
    """Smallest multiple of the tone spacing at or above 2.5x (carrier + bandwidth).

    Any rate above Nyquist gives the exact period, but the amplifier's
    harmonics alias back into the receive band by an amount that depends on
    the rate, so reported numbers depend on this 2.5x margin.
    """
    target = 2.5 * (carrier + bandwidth)
    ratio = target / tone_spacing
    if not math.isfinite(ratio):
        raise ConfigurationError(
            f"one period at tone spacing {tone_spacing} holds no finite number of samples"
        )
    return int(np.ceil(ratio - 1e-9)) * tone_spacing
