"""End-to-end system model: transmit chain, propagation, harvest, and power."""

from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ArrayGeometry,
    ChannelMatrix,
    ReceiverPosition,
    beamformed_received,
    build_channel_matrix,
    receive_band,
)
from .errors import ConfigurationError, DomainError, NumericalError
from .power_model import PowerBreakdown, PowerParams, total_power
from .rectenna import HarvestResult, RectennaParams, harvest_from_signal
from .signal_chain import (
    ChainConfig,
    PhaseWord,
    SampledSignal,
    ToneSet,
    _as_multiple,
    lowpass_filter,
    quantize_dac,
    rapp_amplifier,
    synthesize_multitone,
    upconvert,
)


@dataclass(frozen=True)
class SystemModel:
    """Everything fixed about the transmitter, channel, and receiver.

    The waveform (ToneSet) and beam (PhaseWord) are the free variables; all
    sampling rates are validated to be commensurate with the tone spacing so
    simulations cover exactly one fundamental period. The receive band's rfft
    bins of the passband period and the channel at them (H_band, N x bins) are
    computed once here.
    """

    tone_count: int
    tone_spacing: float
    chain: ChainConfig
    geometry: ArrayGeometry
    receiver: ReceiverPosition
    rectenna: RectennaParams
    power: PowerParams
    boresight_exponent: float = 2.0
    channel: ChannelMatrix = field(init=False, repr=False)
    band: np.ndarray = field(init=False, repr=False)
    band_coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.tone_count < 1:
            raise ConfigurationError("tone_count must be at least 1")
        if self.tone_spacing <= 0:
            raise ConfigurationError("tone_spacing must be positive")
        bw = self.bandwidth
        if self.chain.dac_sample_rate < 2 * bw:
            raise ConfigurationError(
                f"dac_sample_rate {self.chain.dac_sample_rate} below twice the bandwidth {bw}"
            )
        for name in ("dac_sample_rate", "carrier"):
            _as_multiple(getattr(self.chain, name), self.tone_spacing, name)
        n = _as_multiple(self.chain.sim_sample_rate, self.tone_spacing, "sim_sample_rate")
        # strict: at equality the top receive bin is the Nyquist bin, which
        # holds no quadrature for the phase shifters to rotate
        if self.chain.sim_sample_rate <= 2 * (self.chain.carrier + bw):
            raise ConfigurationError(
                f"sim_sample_rate {self.chain.sim_sample_rate} must exceed the Nyquist rate"
                f" 2 x (carrier {self.chain.carrier} + bandwidth {bw})"
            )
        if self.chain.carrier <= bw:
            raise ConfigurationError("carrier must exceed the baseband bandwidth")
        if self.geometry.carrier <= bw:
            raise ConfigurationError("RF carrier must exceed the baseband bandwidth")
        try:
            matrix = build_channel_matrix(
                self.geometry,
                self.receiver,
                self.tone_count,
                self.tone_spacing,
                self.boresight_exponent,
            )
        except DomainError as exc:
            raise ConfigurationError(f"channel: {exc}") from exc
        band, coefficients = receive_band(
            matrix, n, self.chain.sim_sample_rate, self.chain.carrier, bw
        )
        object.__setattr__(self, "channel", matrix)
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "band_coefficients", coefficients)

    @property
    def bandwidth(self) -> float:
        return self.tone_count * self.tone_spacing

    @property
    def element_count(self) -> int:
        return self.geometry.count


@dataclass(frozen=True)
class ChainStages:
    """Per-stage waveforms of one simulation pass."""

    digital: SampledSignal
    dac: SampledSignal
    lpf: SampledSignal
    mixer: SampledSignal
    hpa: SampledSignal
    received: SampledSignal


@dataclass(frozen=True)
class SimulationOutcome:
    """Harvest and consumption results for one (waveform, beam) candidate,
    with the stage waveforms they were computed from."""

    harvest: HarvestResult
    power: PowerBreakdown
    stages: ChainStages


def _validated(tones: ToneSet, word: PhaseWord, system: SystemModel) -> None:
    if tones.count != system.tone_count:
        raise DomainError(f"expected {system.tone_count} tones, got {tones.count}")
    if tones.tone_spacing != system.tone_spacing:
        raise DomainError("tone spacing does not match the system model")
    if word.count != system.element_count:
        raise DomainError(f"expected {system.element_count} phase levels, got {word.count}")
    if word.bits != system.chain.ps_bits:
        raise DomainError("phase word resolution does not match the chain config")


def _stage(name: str, fn, *args):
    try:
        return fn(*args)
    except (DomainError, ConfigurationError):
        raise
    except Exception as exc:  # noqa: BLE001 - tag unexpected numerical failures
        raise NumericalError(f"{name} stage failed: {exc}") from exc


# a floating-point overflow or invalid operation fails as the stage it happened in
@np.errstate(over="raise", invalid="raise")
def run_chain(tones: ToneSet, word: PhaseWord, system: SystemModel) -> ChainStages:
    """Push one waveform through every transmitter stage to the receiver."""
    _validated(tones, word, system)
    chain = system.chain
    digital = _stage("synthesis", synthesize_multitone, tones, chain.dac_sample_rate)
    dac = _stage("dac", quantize_dac, digital, chain.dac_bits, chain.dac_range)
    lpf = _stage("lpf", lowpass_filter, dac, system.bandwidth)
    mixer = _stage(
        "mixer", upconvert, lpf, chain.carrier, chain.sim_sample_rate, system.bandwidth
    )
    hpa = _stage(
        "hpa", rapp_amplifier, mixer, chain.hpa_gain, chain.hpa_saturation, chain.hpa_smoothness
    )
    received = _stage(
        "channel",
        beamformed_received,
        hpa,
        word,
        chain.ps_insertion_loss,
        system.band,
        system.band_coefficients,
    )
    return ChainStages(digital, dac, lpf, mixer, hpa, received)


@np.errstate(over="raise", invalid="raise")
def evaluate_solution(tones: ToneSet, word: PhaseWord, system: SystemModel) -> SimulationOutcome:
    """Full-chain harvest and power evaluation of one candidate."""
    stages = run_chain(tones, word, system)
    harvest = _stage("rectenna", harvest_from_signal, stages.received, system.rectenna)
    power = _stage(
        "power-model",
        total_power,
        tones,
        stages.mixer,
        stages.hpa,
        system.chain.dac_bits,
        system.chain.dac_sample_rate,
        system.power,
    )
    if not (np.isfinite(harvest.p_out_dc) and np.isfinite(power.p_total)):
        raise NumericalError("evaluation produced a non-finite result")
    return SimulationOutcome(harvest, power, stages)
