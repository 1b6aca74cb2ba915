"""Joint waveform and beamforming search.

A global-best particle swarm minimizes total transmitter power under the
harvested-DC constraint, which enters the objective as a large finite penalty
plus the normalized violation so infeasible particles are still ranked and
pulled toward feasibility. A brute-force grid provides toy-scale ground truth.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, require_finite
from .power_model import PowerBreakdown, dac_power
from .signal_chain import PhaseWord, ToneSet
from .simulation import (
    GRID_CHUNK_SAMPLES,
    MAX_PERIOD_SAMPLES,
    _RAISE,
    SystemModel,
    _amplified,
    _harvested,
    _harvested_under_every_word,
    _priced,
    _quantized,
    _transmitted,
    evaluate_solution,
)

# fraction of each dimension's range; unclamped velocities pin particles on bounds
VELOCITY_CLAMP = 0.2

GRID_BUDGET = 10_000_000

# Most samples (particles x the longer of n_dac and n_env) in one swarm batch.
# One batch of 30 particles peaks near 75 bytes an envelope sample at 64 to
# 1024 tones, and 114 a DAC sample where n_dac is the longer (tracemalloc), so
# this is 2.5 to 4 GB. No period exceeds MAX_PERIOD_SAMPLES, so every system
# admits 32 particles, the default 30 too.
_SWARM_BATCH_SAMPLES = 32 * MAX_PERIOD_SAMPLES


@dataclass(frozen=True)
class SwarmConfig:
    """Swarm hyperparameters and problem bounds."""

    particles: int = 30
    iterations: int = 200
    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    seed: int = 1
    amplitude_max: float = 300.0  # volts
    required_dc_power: float = 20e-6  # watts
    penalty: float = 1e6  # watts, must exceed any attainable consumption

    def __post_init__(self):
        require_finite(self)
        if self.particles < 2:
            raise ConfigurationError("particles must be at least 2")
        if self.iterations < 0:
            raise ConfigurationError("iterations must be nonnegative")
        if not 0.0 <= self.inertia <= 1.0:
            raise ConfigurationError("inertia must lie in [0, 1]")
        for name in ("cognitive", "social", "amplitude_max"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.required_dc_power < 0:
            raise ConfigurationError("required_dc_power must be nonnegative")
        if self.penalty <= 0:
            raise ConfigurationError("penalty must be positive")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")


@dataclass(frozen=True)
class CandidateEval:
    """Objective value and diagnostics of one evaluated candidate."""

    fitness: float
    p_out_dc: float
    power: PowerBreakdown
    feasible: bool


@dataclass(frozen=True)
class OptimizationResult:
    """Best solution found, with its audit trail."""

    tones: ToneSet
    phase_word: PhaseWord
    power: PowerBreakdown
    p_out_dc: float
    feasible: bool
    best_fitness: float
    fitness_trace: np.ndarray
    evaluations: int


def particle_bounds(
    tone_count: int, element_count: int, amplitude_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper bounds of the 2K + N search vector."""
    n_var = 2 * tone_count + element_count
    lower = np.zeros(n_var)
    upper = np.concatenate(
        [
            np.full(tone_count, amplitude_max),
            np.full(tone_count, 2.0 * np.pi),
            np.ones(element_count),
        ]
    )
    return lower, upper


def decode_particle(
    position: np.ndarray, tone_count: int, tone_spacing: float, ps_bits: int
) -> tuple[ToneSet, PhaseWord]:
    """Split a particle into tone amplitudes/phases and integer phase levels.

    The relaxed [0, 1] beam variables scale by 2^B - 1 and floor down; phases
    wrap modulo one turn so the upper bound 2*pi maps onto 0.
    """
    position = np.asarray(position, dtype=float)
    if position.size <= 2 * tone_count:
        raise ConfigurationError("particle must carry 2K tone entries plus N beam entries")
    amplitudes, phases, levels = _decode_swarm(position[None], tone_count, ps_bits)
    return ToneSet(amplitudes[0], phases[0], tone_spacing), PhaseWord(levels[0], ps_bits)


def _decode_swarm(
    positions: np.ndarray, tone_count: int, ps_bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """decode_particle's rule on every row of a (P, 2K + N) swarm at once:
    the candidates' amplitudes, phases and phase levels as arrays."""
    top = 2**ps_bits - 1
    amplitudes = positions[:, :tone_count]
    phases = np.mod(positions[:, tone_count : 2 * tone_count], 2.0 * np.pi)
    levels = np.clip(np.floor(positions[:, 2 * tone_count :] * top).astype(int), 0, top)
    return amplitudes, phases, levels


def _penalised(p_out, p_total, swarm: SwarmConfig) -> tuple[np.ndarray, np.ndarray]:
    """Consumption where the harvest is feasible, ranked penalty where not."""
    p_out = np.asarray(p_out)
    feasible = p_out >= swarm.required_dc_power
    values = np.array(p_total, dtype=float)
    shortfall = swarm.required_dc_power - p_out[~feasible]
    values[~feasible] = swarm.penalty + shortfall / swarm.required_dc_power
    return values, feasible


def evaluate_candidate(
    tones: ToneSet, word: PhaseWord, system: SystemModel, swarm: SwarmConfig
) -> CandidateEval:
    """Objective of one candidate: consumption if feasible, ranked penalty if not."""
    outcome = evaluate_solution(tones, word, system)
    value, feasible = _penalised(outcome.harvest.p_out_dc, outcome.power.p_total, swarm)
    return CandidateEval(float(value), outcome.harvest.p_out_dc, outcome.power, bool(feasible))


def _check_penalty(system: SystemModel, swarm: SwarmConfig) -> None:
    """Refuse a penalty that some feasible candidate's consumption could reach.

    The HPA output stays below saturation and every tone amplitude below
    amplitude_max, so the sum below bounds p_total from above. A square that
    overflows makes the bound inf, which no penalty exceeds.
    """
    chain, power = system.chain, system.power
    try:
        bound = (
            dac_power(chain.dac_bits, chain.dac_sample_rate, power)
            + power.mixer_power
            + power.oscillator_power
            + chain.hpa_saturation**2 / power.hpa_output_resistance
            + swarm.amplitude_max**2
        )
    except OverflowError:
        bound = math.inf
    if not swarm.penalty > bound:
        raise ConfigurationError(
            f"swarm.penalty {swarm.penalty:g} W does not exceed the {bound:g} W bound"
            " on transmitter consumption"
        )


class _Objective:
    """The penalised fitness every search ranks by, counting what it ranks. Decoded
    and grid candidates are valid by construction, so they are not checked again.
    Besides the ranked candidates it counts the tone rows whose envelope and
    amplifier ran, one per distinct DAC output, and the received periods."""

    def __init__(self, system: SystemModel, swarm: SwarmConfig):
        _check_penalty(system, swarm)
        self.system, self.swarm = system, swarm
        self.evaluations = self.transmitted_rows = self.received_rows = 0

    def transmit(self, amplitudes, phases):
        sent = _transmitted(amplitudes, phases, self.system)
        self.transmitted_rows += len(sent.emission)
        return sent

    def rank(self, sent, levels):
        """Fitness of a swarm's transmit, row p under row p's phase levels (P, N),
        and a function building candidate p's CandidateEval."""
        harvest, power = _harvested(sent, levels, self.system)
        self.received_rows += len(levels)
        return self._ranked(harvest.p_out_dc, power)

    def _ranked(self, p_out_dc, power):
        """Fitness of harvests p_out_dc (...) with the consumption broadcast
        against them, flat in C order, and a function building flat candidate
        p's CandidateEval."""
        shape, p_out_dc = p_out_dc.shape, p_out_dc.ravel()
        p_total = np.broadcast_to(power.p_total, shape).ravel()
        values, feasible = _penalised(p_out_dc, p_total, self.swarm)
        self.evaluations += values.size

        def record(p: int) -> CandidateEval:
            # only the recorded candidate's fields are broadcast and read
            index = np.unravel_index(p, shape)
            row = PowerBreakdown(
                *(float(np.broadcast_to(v, shape)[index]) for v in vars(power).values())
            )
            return CandidateEval(float(values[p]), float(p_out_dc[p]), row, bool(feasible[p]))

        return values, record

    def result(self, tones: ToneSet, word: PhaseWord, best: CandidateEval, trace):
        return OptimizationResult(
            tones, word, best.power, best.p_out_dc, best.feasible, best.fitness,
            np.asarray(trace), self.evaluations,
        )


class _Points(NamedTuple):
    """A grid's transmit of tone points (R, K): their amplitudes; each point's
    DAC output as its row in the grid's table, (R,), where the outputs first
    seen in this transmit take the rows from held on, past the table's end
    where it has no room; and those f outputs' emissions (f, 2K+1) and
    amplifier powers p_in and p_out (f, 2), or None when there are none."""

    amplitudes: np.ndarray
    slots: np.ndarray
    held: int
    emission: np.ndarray | None
    powers: np.ndarray | None


def _gathered(table, new, slots, held):
    """Row slot of table for each slot below held, row slot - held of new for
    the others."""
    if new is None:
        return table[slots]
    if not held:  # a word-split grid's table holds nothing
        return new[slots]
    rows = np.empty((len(slots), table.shape[1]))
    old = slots < held
    rows[old] = table[slots[old]]
    rows[~old] = new[slots[~old] - held]
    return rows


class _GridObjective(_Objective):
    """A grid's objective, which ranks tone points under every word. It keeps a
    table of the DAC outputs it has ranked, up to size of them, keyed by their
    exact bytes (+0.0 and -0.0 apart, no tolerance): each output's amplifier
    powers and its harvest under each of the words a rank holds. An output the
    table holds is neither transmitted nor received again; each tone point's
    consumption is its own."""

    def __init__(self, system: SystemModel, swarm: SwarmConfig, size: int, words: int):
        super().__init__(system, swarm)
        self.slots = {}  # an output's bytes: its row in the table
        self.powers, self.p_out_dc = np.empty((size, 2)), np.empty((size, words))

    @np.errstate(**_RAISE)
    def transmit(self, amplitudes, phases) -> _Points:
        """Tone points (R, K) quantized, and the envelope and the amplifier run
        once on each of their distinct DAC outputs that the table does not hold."""
        rows = _quantized(amplitudes, phases, self.system)
        slots, held = self.slots, len(self.slots)
        data, width = rows.tobytes(), rows.itemsize * rows.shape[1]
        # one pass groups the rows and looks them up: a new output takes the
        # next slot, and leaves the table again where it has no room
        keys = (data[i : i + width] for i in range(0, len(data), width))
        index = np.array([slots.setdefault(key, len(slots)) for key in keys])
        new = list(slots)[held:]
        for key in new[len(self.powers) - held :]:
            del slots[key]
        emission = powers = None
        if new:
            new_rows = np.frombuffer(b"".join(new), rows.dtype).reshape(len(new), -1)
            emission, p_in, p_out = _amplified(new_rows, self.system)
            powers = np.stack((p_in, p_out), axis=1)
            self.transmitted_rows += len(new)
        return _Points(amplitudes, index, held, emission, powers)

    def rank(self, points: _Points, levels):
        """Fitness of a grid's tone points under every word of phase levels
        (W, N), flat with the word fastest, and a function building flat
        candidate p's CandidateEval. The outputs received here enter the
        table while it has room."""
        amplitudes, slots, held, emission, powers = points
        received = None
        with np.errstate(**_RAISE):
            if emission is not None:
                received = _harvested_under_every_word(
                    emission, levels, self.system, GRID_CHUNK_SAMPLES
                )
                self.received_rows += received.size
                admitted = len(self.slots) - held
                if admitted:
                    self.powers[held : held + admitted] = powers[:admitted]
                    self.p_out_dc[held : held + admitted] = received[:admitted]
            p_out_dc = _gathered(self.p_out_dc, received, slots, held)
            powers = _gathered(self.powers, powers, slots, held)
            # each point's own consumption, (R, 1), against its harvests (R, W)
            power = _priced(
                p_out_dc, amplitudes[:, None], powers[:, :1], powers[:, 1:], self.system
            )
        return self._ranked(p_out_dc, power)


def pso_run(system: SystemModel, swarm: SwarmConfig, callback=None) -> OptimizationResult:
    """Global-best PSO over [amplitudes, phases, relaxed phase words].

    Velocities start at zero, and every draw comes from one generator seeded
    by swarm.seed: the initial swarm, then each iteration's (P, 2, 2K + N)
    cognitive and social factors. Positions clamp to the bounds with the
    clamped velocity component zeroed, and ties keep the incumbent best. The
    global-best trace (initial swarm plus one entry per iteration) is
    non-increasing.
    """
    objective = _Objective(system, swarm)
    batch = swarm.particles * max(system.n_dac, system.n_env)
    if batch > _SWARM_BATCH_SAMPLES:
        raise ConfigurationError(
            f"swarm.particles {swarm.particles} puts {batch:.3g} samples in one batch;"
            f" at most {_SWARM_BATCH_SAMPLES} are simulated"
        )
    lower, upper = particle_bounds(system.tone_count, system.element_count, swarm.amplitude_max)
    n_var = lower.size
    span = upper - lower
    # no velocity component exceeds (inertia clamp + cognitive + social) times
    # the widest range; doubled against rounding, that bound must be a double
    widest = float(span.max())
    if not math.isfinite(
        2.0 * (swarm.inertia * VELOCITY_CLAMP + swarm.cognitive + swarm.social) * widest
    ):
        raise ConfigurationError(
            f"swarm.cognitive {swarm.cognitive:g} and swarm.social {swarm.social:g} overflow"
            f" the velocity update over a search range of {widest:g}"
        )
    v_max = VELOCITY_CLAMP * span
    rng = np.random.default_rng(swarm.seed)

    def evaluate(positions):
        amplitudes, phases, levels = _decode_swarm(
            positions, system.tone_count, system.chain.ps_bits
        )
        return objective.rank(objective.transmit(amplitudes, phases), levels)

    positions = lower + rng.random((swarm.particles, n_var)) * span
    velocities = np.zeros_like(positions)
    best_fitness, record = evaluate(positions)
    best_positions = positions.copy()
    g_index = int(np.argmin(best_fitness))
    g_position = best_positions[g_index].copy()
    g_eval = record(g_index)
    trace = [g_eval.fitness]

    for iteration in range(1, swarm.iterations + 1):
        # per particle, rows r_cog and r_soc
        draws = rng.random((swarm.particles, 2, n_var))
        velocities = (
            swarm.inertia * velocities
            + swarm.cognitive * draws[:, 0] * (best_positions - positions)
            + swarm.social * draws[:, 1] * (g_position - positions)
        )
        np.clip(velocities, -v_max, v_max, out=velocities)
        moved = positions + velocities
        velocities[(moved < lower) | (moved > upper)] = 0.0
        positions = np.clip(moved, lower, upper)

        current, record = evaluate(positions)
        improved = current < best_fitness
        best_fitness[improved] = current[improved]
        best_positions[improved] = positions[improved]
        # the incumbent is the least of the old personal bests, so only a particle
        # that improved in this iteration can beat it, and this batch holds its record
        g_index = int(np.argmin(best_fitness))
        if best_fitness[g_index] < g_eval.fitness:
            g_eval = record(g_index)
            g_position = best_positions[g_index].copy()
        trace.append(g_eval.fitness)
        if callback is not None:
            callback(iteration, positions, g_eval.fitness)

    tones, word = decode_particle(
        g_position, system.tone_count, system.tone_spacing, system.chain.ps_bits
    )
    return objective.result(tones, word, g_eval, trace)


def brute_force_grid(
    amplitude_points: int, phase_points: int, system: SystemModel, swarm: SwarmConfig
) -> OptimizationResult:
    """Exhaustive objective over a regular amplitude/phase grid and every phase word.

    Ground truth for toy instances; refuses grids beyond the 1e7-point budget.
    """
    if amplitude_points < 1 or phase_points < 1:
        raise ConfigurationError("grid needs at least one point per dimension")
    tone_count = system.tone_count
    element_count = system.element_count
    bits = system.chain.ps_bits
    total = (
        amplitude_points**tone_count * phase_points**tone_count * 2 ** (bits * element_count)
    )
    if total > GRID_BUDGET:
        raise ConfigurationError(f"grid of {total} points exceeds the {GRID_BUDGET} budget")

    amplitude_axis = np.linspace(0.0, swarm.amplitude_max, amplitude_points)
    phase_axis = np.linspace(0.0, 2.0 * np.pi, phase_points, endpoint=False)
    # flat index i enumerates the grid as nested loops, the first amplitude
    # outermost and the last phase level innermost: tone point i // words,
    # word i % words. A chunk of tone points is synthesized and quantized at
    # once, each of its distinct DAC outputs that the objective's table does
    # not hold transmitted once, and each such emission received under every
    # word.
    radices = (amplitude_points,) * tone_count + (phase_points,) * tone_count
    words = 2 ** (bits * element_count)
    tone_points = total // words
    # a chunk holds tone points x n_dac DAC samples and ranks tone points x
    # words values, each at most GRID_CHUNK_SAMPLES; a tone point of more words
    # than that is a chunk of its own, ranked a part of its words at a time,
    # so the chunks run in enumeration order. The objective receives a chunk's
    # new emissions in blocks of at most GRID_CHUNK_SAMPLES samples, each
    # forming its words' beam gains once for all its emissions; a table of all
    # 2^(BN) words' gains would grow with the grid. Its table of ranked DAC
    # outputs holds as many as a chunk has tone points, so it too is one
    # chunk's budget of DAC samples and ranked values, and none when a tone
    # point's words are split.
    word_chunk = min(words, GRID_CHUNK_SAMPLES)
    table_size = GRID_CHUNK_SAMPLES // max(system.n_dac, words)
    tone_chunk = max(1, table_size)
    objective = _GridObjective(system, swarm, table_size, word_chunk)

    best_fitness, best = np.inf, None
    for start in range(0, tone_points, tone_chunk):
        points = np.arange(start, min(start + tone_chunk, tone_points))
        digits = np.stack(np.unravel_index(points, radices), axis=1)
        amplitudes = amplitude_axis[digits[:, :tone_count]]
        phases = phase_axis[digits[:, tone_count:]]
        sent = objective.transmit(amplitudes, phases)
        for first in range(0, words, word_chunk):
            indices = np.arange(first, min(first + word_chunk, words))
            levels = np.stack(np.unravel_index(indices, (2**bits,) * element_count), axis=1)
            values, record = objective.rank(sent, levels)
            # ties keep the first point in enumeration order: argmin within a
            # chunk, a strict improvement across chunks
            flat = int(np.argmin(values))
            if values[flat] < best_fitness:
                best_fitness = values[flat]
                point, word = divmod(flat, len(levels))
                best = record(flat), amplitudes[point], phases[point], levels[word]
    best_eval, amplitudes, phases, levels = best
    tones, word = ToneSet(amplitudes, phases, system.tone_spacing), PhaseWord(levels, bits)
    return objective.result(tones, word, best_eval, [best_eval.fitness])
