"""End-to-end system model: transmit chain, propagation, harvest, and power."""

from dataclasses import dataclass, field

import numpy as np

from .channel import (
    MAX_CHANNEL_ENTRIES,
    ArrayGeometry,
    ReceiverPosition,
    beamformed_received,
    build_channel_matrix,
    receive_band,
)
from .errors import ConfigurationError, NumericalError, require_finite
from .power_model import PowerBreakdown, PowerParams, total_power
from .rectenna import HarvestResult, RectennaParams, harvest_from_signal
from .signal_chain import (
    ChainConfig,
    PhaseWord,
    ToneSet,
    ENVELOPE_SAMPLES_PER_TONE,
    _angles,
    _as_floats,
    _as_levels,
    _as_multiple,
    _check_tones,
    _real,
    amplify_envelope,
    band_bins,
    complex_envelope,
    lowpass_filter,
    quantize_dac,
    synthesize_multitone,
)

# Most samples in one period at the DAC (n_dac) or of the envelope (n_env). A
# run holds a few dozen period-long arrays, so 2^20 keeps it to a few hundred
# MiB; either profile holds 80 and 384. A 1 mHz tone spacing puts 1e11 DAC
# samples in a period at the default 100 MHz rate.
MAX_PERIOD_SAMPLES = 2**20


@dataclass(frozen=True)
class SystemModel:
    """Everything fixed about the transmitter, channel, and receiver.

    The waveform (ToneSet) and beam (PhaseWord) are the free variables. The
    sampling plan is checked and fixed here, once: the DAC rate is a multiple
    of the tone spacing, so each stage holds exactly one fundamental period,
    n_dac baseband samples and then n_env = M complex envelope samples. Tone
    k is baseband DFT bin k; the band is the offsets k = -K..K: the low-pass
    filter keeps baseband bins k, the mixer's envelope holds them at bins
    k mod M, and the receiver keeps those bins with the channel at them
    (band_coefficients, H_band, N x 2K+1, taken at the RF carrier plus k tone
    spacings). Every rule on the plan is checked in bins, and the stages
    never see a rate.
    """

    tone_count: int
    tone_spacing: float
    chain: ChainConfig
    geometry: ArrayGeometry
    receiver: ReceiverPosition
    rectenna: RectennaParams
    power: PowerParams
    boresight_exponent: float
    n_dac: int = field(init=False)
    n_env: int = field(init=False)
    band_coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        require_finite(self)
        # bounded before the bandwidth turns it into a float, which overflows past 2^1024
        if not 1 <= self.tone_count <= MAX_PERIOD_SAMPLES:
            raise ConfigurationError(f"waveform.tone_count must lie in [1, {MAX_PERIOD_SAMPLES}]")
        if self.tone_spacing <= 0:
            raise ConfigurationError("waveform.tone_spacing must be positive")
        chain, tones, bw = self.chain, self.tone_count, self.bandwidth
        n_dac = _as_multiple(chain.dac_sample_rate, self.tone_spacing, "chain.dac_sample_rate")
        if n_dac < 2 * tones:
            raise ConfigurationError(
                f"chain.dac_sample_rate {chain.dac_sample_rate} below twice the bandwidth {bw}"
            )
        if n_dac > MAX_PERIOD_SAMPLES:
            raise ConfigurationError(
                f"waveform.tone_spacing {self.tone_spacing} puts {n_dac:.3g} samples in one"
                f" period at chain.dac_sample_rate; at most {MAX_PERIOD_SAMPLES} are simulated"
            )
        n_env = ENVELOPE_SAMPLES_PER_TONE * max(tones, 4)
        if n_env > MAX_PERIOD_SAMPLES:
            raise ConfigurationError(
                f"waveform.tone_count {tones} puts {n_env:.3g} envelope samples in one"
                f" period; at most {MAX_PERIOD_SAMPLES} are simulated"
            )
        if self.geometry.carrier <= bw:
            raise ConfigurationError(f"channel.rf_carrier must exceed the baseband bandwidth {bw}")
        # the element gain 2(b + 1) cos^b is a normalized pattern for finite b > -1;
        # below it the gain is negative and the channel's square root NaN
        if not -1.0 < self.boresight_exponent < np.inf:
            raise ConfigurationError(
                f"channel.boresight_exponent {self.boresight_exponent} must be finite"
                " and exceed -1"
            )
        # beamformed_received scales by 1/sqrt(loss N); past the doubles, every
        # received period would be zero
        if not chain.ps_insertion_loss * self.element_count < np.inf:
            raise ConfigurationError(
                f"chain.ps_insertion_loss_db {chain.ps_insertion_loss_db:g}: its linear ratio"
                f" {chain.ps_insertion_loss:.3g} times the {self.element_count} elements of"
                f" array.rows x array.cols = {self.geometry.rows} x {self.geometry.cols}"
                " overflows"
            )
        entries = self.element_count * (2 * tones + 1)
        if entries > MAX_CHANNEL_ENTRIES:
            raise ConfigurationError(
                f"waveform.tone_count {tones} and array.rows x array.cols {self.geometry.rows}"
                f" x {self.geometry.cols} put {entries:.3g} entries in the channel H_band;"
                f" at most {MAX_CHANNEL_ENTRIES} are modelled"
            )
        # a receiver far enough away (or an RF carrier small enough) overflows
        # the distances, phases or wavelengths: refused here, by its keys,
        # rather than met as a NaN harvest in every evaluation
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                matrix = build_channel_matrix(
                    self.geometry, self.receiver, self.boresight_exponent
                )
            except ConfigurationError as exc:
                raise ConfigurationError(f"receiver.position: {exc}") from exc
            coefficients = receive_band(matrix, tones, self.tone_spacing)
        if not (np.isfinite(matrix.distances).all() and np.isfinite(coefficients).all()):
            raise ConfigurationError(
                f"receiver.position {self.receiver.as_array().tolist()} and channel.rf_carrier"
                f" {self.geometry.carrier} put the channel H_band out of floating-point range"
            )
        for name, value in (
            ("n_dac", n_dac),
            ("n_env", n_env),
            ("band_coefficients", coefficients),
        ):
            object.__setattr__(self, name, value)

    @property
    def bandwidth(self) -> float:
        return self.tone_count * self.tone_spacing

    @property
    def element_count(self) -> int:
        return self.geometry.count


@dataclass(frozen=True)
class ChainStages:
    """Per-stage waveforms of one simulation pass, one period each: n_dac
    complex baseband samples for digital, dac and lpf, n_env complex envelope
    samples around the carrier for the rest; and the amplifier's period-mean
    input and output powers into 1 ohm. A batch's stages carry a leading
    candidate axis."""

    digital: np.ndarray
    dac: np.ndarray
    mixer: np.ndarray
    hpa: np.ndarray
    received: np.ndarray
    hpa_input_power: float
    hpa_output_power: float
    tone_count: int

    @property
    def lpf(self) -> np.ndarray:
        """The low-pass filter's output. The mixer's envelope filters the DAC
        output itself, so this period is formed only when it is read."""
        return lowpass_filter(self.dac, self.tone_count)


@dataclass(frozen=True)
class SimulationOutcome:
    """Harvest and consumption results for one (waveform, beam) candidate,
    with the stage waveforms they were computed from."""

    harvest: HarvestResult
    power: PowerBreakdown
    stages: ChainStages


def _check_shapes(amplitudes, phases, levels, system: SystemModel) -> None:
    # the candidates' shapes against the system; values are checked by the caller
    tones, elements = system.tone_count, system.element_count
    if amplitudes.shape[-1:] != (tones,) or phases.shape != amplitudes.shape:
        raise ConfigurationError(
            f"expected {tones} tones, got amplitudes {amplitudes.shape} and phases {phases.shape}"
        )
    if levels.shape != (*amplitudes.shape[:-1], elements):
        raise ConfigurationError(
            f"expected {elements} phase levels a candidate, got {levels.shape}"
        )


def _candidate(tones: ToneSet, word: PhaseWord, system: SystemModel):
    """One validated candidate's arrays, checked against the system."""
    if tones.tone_spacing != system.tone_spacing:
        raise ConfigurationError("tone spacing does not match the system model")
    if word.bits != system.chain.ps_bits:
        raise ConfigurationError("phase word resolution does not match the chain config")
    _check_shapes(tones.amplitudes, tones.phases, word.levels, system)
    return tones.amplitudes, tones.phases, word.levels


def _stage(name: str, fn, *args):
    # the stages take validated inputs only, so whatever they raise is numerical
    try:
        return fn(*args)
    except OverflowError as exc:
        # a Python float's, whose message is an errno tuple such as (34, ...)
        raise NumericalError(f"{name} stage failed: overflow in float arithmetic") from exc
    except Exception as exc:  # noqa: BLE001 - tag unexpected numerical failures
        raise NumericalError(f"{name} stage failed: {exc}") from exc


# An evaluation is a transmit and a receive. The model is linear after the
# amplifier and the receiver keeps only the band, so the transmit's emission,
# the 2K + 1 band bins of the amplified envelope, is all of the period that a
# beam acts on: one transmit serves every phase word. Everything after the DAC
# depends only on its output, and a B-bit DAC that saturates maps many tone
# sets to one output. A batch (a swarm's, or evaluate_batch's) is one step,
# _evaluated, row p under row p's word. A grid's chunk is one step too, its
# objective's rank (wptsim.optimizer, with the grid's budget and its block
# receive): the envelope and the amplifier run once per distinct DAC output,
# whose emission is received under every word to find its best word, and each
# tone point is ranked once, under its output's best word. Every composition
# calls the steps below, and they call the stage kernels through this module,
# so a kernel wrapped here is timed on every path. The kernels run on
# candidate arrays with any leading axes, one candidate or a batch, and every
# reduction is along the last axis, row by row, so a candidate's result does
# not depend on its batch. The entry points (run_chain, evaluate_solution,
# _evaluated, and the grid objective's rank) make a floating-point overflow or
# invalid operation raise, so that it fails as the stage it happened in.
_RAISE = {"over": "raise", "invalid": "raise"}


def _sampled(amplitudes, phases, system: SystemModel):
    """synth -> DAC on (..., K) tones: the digital and dac periods, (..., n_dac)."""
    chain = system.chain
    digital = _stage("synthesis", synthesize_multitone, amplitudes, phases, system.n_dac)
    return digital, _stage("dac", quantize_dac, digital, chain.dac_bits, chain.dac_range)


def _emitted(dac, system: SystemModel):
    """envelope -> HPA on DAC periods (..., n_dac). Returns the emission
    X = fft(hpa)[..., band], (..., 2K+1), and the mixer and hpa periods and
    the amplifier's period-mean input and output powers it came from."""
    chain = system.chain
    mixer = _stage("mixer", complex_envelope, dac, system.tone_count, system.n_env)
    hpa, p_in, p_out = _stage(
        "hpa", amplify_envelope, mixer, chain.hpa_gain, chain.hpa_saturation, chain.hpa_smoothness
    )
    emission = np.fft.fft(hpa).take(band_bins(system.tone_count, system.n_env), axis=-1)
    return emission, (mixer, hpa, p_in, p_out)


def _receive(emission, levels, system: SystemModel) -> np.ndarray:
    """The received envelope periods, (..., M), of emissions (..., 2K+1)
    under the beams of phase levels (..., N), broadcast against each other."""
    chain = system.chain
    return _stage(
        "channel",
        beamformed_received,
        emission,
        _angles(levels, chain.ps_bits),
        chain.ps_insertion_loss,
        system.band_coefficients,
        system.n_env,
    )


def _harvest(received, system: SystemModel) -> HarvestResult:
    return _stage("rectenna", harvest_from_signal, received, system.rectenna)


def _priced(p_out_dc, amplitudes, p_in, p_out, system: SystemModel) -> PowerBreakdown:
    """The consumption of tones (..., K) whose transmits drew amplifier powers
    p_in and p_out (...). Their harvests p_out_dc, whose shape broadcasts
    against the consumption's, are checked with it: a non-finite value of
    either fails the evaluation."""
    power = _stage(
        "power-model",
        total_power,
        amplitudes,
        p_in,
        p_out,
        system.chain.dac_bits,
        system.chain.dac_sample_rate,
        system.power,
    )
    if not (np.isfinite(p_out_dc) & np.isfinite(power.p_total)).all():
        raise NumericalError("evaluation produced a non-finite result")
    return power


def _harvest_and_power(
    received, amplitudes, p_in, p_out, system: SystemModel
) -> tuple[HarvestResult, PowerBreakdown]:
    """The harvest of received periods (..., M), with the consumption of their transmits."""
    harvest = _harvest(received, system)
    return harvest, _priced(harvest.p_out_dc, amplitudes, p_in, p_out, system)


@np.errstate(**_RAISE)
def _evaluated(
    amplitudes, phases, levels, system: SystemModel
) -> tuple[HarvestResult, PowerBreakdown]:
    """Harvest and power of candidate rows, tones (P, K) under phase levels
    (P, N), row p's emission received under row p's word. Consumption is each
    row's own, from its amplitudes. The digital, dac, mixer and hpa periods
    are not read again, so they are freed before the receive."""
    emission, (*periods, p_in, p_out) = _emitted(_sampled(amplitudes, phases, system)[1], system)
    del periods
    received = _receive(emission, levels, system)
    return _harvest_and_power(received, amplitudes, p_in, p_out, system)


@np.errstate(**_RAISE)
def run_chain(tones: ToneSet, word: PhaseWord, system: SystemModel) -> ChainStages:
    """Push one waveform through every transmitter stage to the receiver."""
    amplitudes, phases, levels = _candidate(tones, word, system)
    digital, dac = _sampled(amplitudes, phases, system)
    emission, (mixer, hpa, p_in, p_out) = _emitted(dac, system)
    received = _receive(emission, levels, system)
    return ChainStages(digital, dac, mixer, hpa, received, p_in, p_out, system.tone_count)


@np.errstate(**_RAISE)
def evaluate_solution(tones: ToneSet, word: PhaseWord, system: SystemModel) -> SimulationOutcome:
    """Full-chain harvest and power evaluation of one candidate, with its stage
    waveforms: the single-candidate case of evaluate_batch, bit for bit."""
    stages = run_chain(tones, word, system)
    harvest, power = _harvest_and_power(
        stages.received,
        tones.amplitudes,
        stages.hpa_input_power,
        stages.hpa_output_power,
        system,
    )
    return SimulationOutcome(_floats(harvest), _floats(power), stages)


def evaluate_batch(
    amplitudes: np.ndarray, phases: np.ndarray, levels: np.ndarray, system: SystemModel
) -> tuple[HarvestResult, PowerBreakdown]:
    """Harvest and power of P candidates at once: amplitudes and phases (P, K),
    integer phase levels (P, N). Each field of the results is a (P,) array,
    and row p equals evaluate_solution on candidate p exactly.

    The batch is checked once, here; a numerical failure of any row fails the
    whole batch as its stage.
    """
    amplitudes = _as_floats(amplitudes, "amplitudes")
    phases = _as_floats(phases, "phases")
    levels = _real(levels, "levels")
    if amplitudes.ndim != 2:
        raise ConfigurationError(f"expected (P, K) amplitudes, got shape {amplitudes.shape}")
    _check_shapes(amplitudes, phases, levels, system)
    _check_tones(amplitudes, phases)
    levels = _as_levels(levels, system.chain.ps_bits)
    harvest, power = _evaluated(amplitudes, phases, levels, system)
    # p_dac, p_mix and p_lo are the same for every candidate
    return harvest, PowerBreakdown(*np.broadcast_arrays(*vars(power).values()))


def _floats(record):
    """A one-candidate result record with every field a Python float."""
    return type(record)(*map(float, vars(record).values()))

