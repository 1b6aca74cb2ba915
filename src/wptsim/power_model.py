"""Transmitter power consumption: DAC, mixer, oscillator, HPA, and signal."""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, require_finite


@dataclass(frozen=True)
class PowerParams:
    """Component constants of the consumption model; the defaults are the paper's."""

    supply_voltage: float = 3.0  # V
    unit_current: float = 10e-6  # A, least-significant-bit current source
    parasitic_capacitance: float = 1e-12  # F, DAC switch parasitics
    correction_factor: float = 1.0  # second-order correction
    mixer_power: float = 23e-3  # W
    oscillator_power: float = 5e-3  # W
    hpa_input_resistance: float = 1.0  # ohm
    hpa_output_resistance: float = 1.0  # ohm

    def __post_init__(self):
        require_finite(self)
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ConfigurationError(f"{f.name} must be positive")


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component transmitter power draw, in watts: one number per
    component, or one array entry per candidate of a batch."""

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
    static = params.supply_voltage * params.unit_current * (2**bits - 1)
    switching = params.parasitic_capacitance * sample_rate * params.supply_voltage**2 * bits
    return 0.5 * params.correction_factor * (static + switching)


def hpa_power(input_power, output_power, input_resistance: float, output_resistance: float):
    """Difference of the period-mean output and input powers of the amplifier.

    The powers are period means of the squared port voltages (mean |a|^2 / 2
    and mean h(|a|) of the amplifier's first zone). A dissipation proxy, not
    a drain-efficiency model; it can come out negative for deeply saturated
    drives with equal port resistances.
    """
    return output_power / output_resistance - input_power / input_resistance


def signal_power(amplitudes: np.ndarray):
    """Mean squared tone amplitude (implicit 1-ohm convention), along the last axis."""
    return (amplitudes**2).sum(axis=-1) / amplitudes.shape[-1]


def total_power(
    amplitudes: np.ndarray,
    amplifier_in,
    amplifier_out,
    dac_bits: int,
    dac_sample_rate: float,
    params: PowerParams,
) -> PowerBreakdown:
    """Assemble the five-component consumption total of each candidate:
    amplitudes are (..., K) and amplifier_in and amplifier_out, the
    amplifier's period-mean port powers into 1 ohm, (...). p_hpa and p_s
    come out with the candidates' shape, the other three as numbers."""
    p_dac = dac_power(dac_bits, dac_sample_rate, params)
    p_hpa = hpa_power(
        amplifier_in, amplifier_out, params.hpa_input_resistance, params.hpa_output_resistance
    )
    p_s = signal_power(amplitudes)
    return PowerBreakdown(p_dac, params.mixer_power, params.oscillator_power, p_hpa, p_s)
