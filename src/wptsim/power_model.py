"""Transmitter power consumption: DAC, mixer, oscillator, HPA, and signal."""

from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from .signal_chain import SampledSignal, ToneSet


@dataclass(frozen=True)
class PowerParams:
    """Component constants of the consumption model."""

    supply_voltage: float  # V
    unit_current: float  # A, least-significant-bit current source
    parasitic_capacitance: float  # F, DAC switch parasitics
    correction_factor: float  # second-order correction
    mixer_power: float  # W
    oscillator_power: float  # W
    hpa_input_resistance: float  # ohm
    hpa_output_resistance: float  # ohm

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise DomainError(f"{f.name} must be positive")


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component transmitter power draw, in watts."""

    p_dac: float
    p_mix: float
    p_lo: float
    p_hpa: float
    p_s: float

    @property
    def p_total(self) -> float:
        """Sum of the five components."""
        return self.p_dac + self.p_mix + self.p_lo + self.p_hpa + self.p_s

    @property
    def hpa_negative(self) -> bool:
        """True when the amplifier dissipation proxy came out negative."""
        return self.p_hpa < 0


def dac_power(bits: int, sample_rate: float, params: PowerParams) -> float:
    """Static-current plus switching power of the binary-weighted DAC."""
    if bits < 1:
        raise DomainError("dac resolution must be at least 1 bit")
    static = params.supply_voltage * params.unit_current * (2**bits - 1)
    switching = params.parasitic_capacitance * sample_rate * params.supply_voltage**2 * bits
    return 0.5 * params.correction_factor * (static + switching)


def hpa_power(
    amplifier_in: SampledSignal,
    amplifier_out: SampledSignal,
    input_resistance: float,
    output_resistance: float,
) -> float:
    """Difference of the period-mean output and input powers of the amplifier.

    A dissipation proxy, not a drain-efficiency model; it can come out
    negative for deeply saturated drives with equal port resistances.
    """
    if input_resistance <= 0 or output_resistance <= 0:
        raise DomainError("port resistances must be positive")
    if amplifier_in.samples.size != amplifier_out.samples.size:
        raise DomainError("amplifier input and output must share length")
    if amplifier_in.sample_rate != amplifier_out.sample_rate:
        raise DomainError("amplifier input and output must share sample rate")
    p_in = np.mean(np.abs(amplifier_in.samples) ** 2, axis=-1) / input_resistance
    p_out = np.mean(np.abs(amplifier_out.samples) ** 2, axis=-1) / output_resistance
    return float(p_out - p_in)


def signal_power(tones: ToneSet) -> float:
    """Mean squared tone amplitude (implicit 1-ohm convention)."""
    return float(np.mean(tones.amplitudes**2))


def total_power(
    tones: ToneSet,
    amplifier_in: SampledSignal,
    amplifier_out: SampledSignal,
    dac_bits: int,
    dac_sample_rate: float,
    params: PowerParams,
) -> PowerBreakdown:
    """Assemble the five-component consumption total."""
    p_dac = dac_power(dac_bits, dac_sample_rate, params)
    p_hpa = hpa_power(
        amplifier_in, amplifier_out, params.hpa_input_resistance, params.hpa_output_resistance
    )
    p_s = signal_power(tones)
    return PowerBreakdown(p_dac, params.mixer_power, params.oscillator_power, p_hpa, p_s)
