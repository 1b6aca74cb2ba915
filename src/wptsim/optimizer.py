"""Joint waveform and beamforming search.

A global-best particle swarm minimizes total transmitter power under the
harvested-DC constraint, which enters the objective as a large finite penalty
plus the normalized violation so infeasible particles are still ranked and
pulled toward feasibility. A brute-force grid provides toy-scale ground truth.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, _is_integer, require_finite
from .power_model import PowerBreakdown, dac_power
from .signal_chain import PhaseWord, ToneSet, _as_floats
from .simulation import (
    MAX_PERIOD_SAMPLES,
    _RAISE,
    SystemModel,
    _emitted,
    _evaluated,
    _harvest,
    _priced,
    _receive,
    _sampled,
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

# Most DAC samples (tone points x n_dac) in a chunk of the grid, which ranks
# one value a tone point, and envelope samples in one receive (distinct
# emissions x words x n_env), so its memory does not grow with the grid; the
# grid's table holds a row of four numbers for as many DAC outputs as a chunk
# has tone points. The rectenna's table read holds seven float arrays of the
# received samples besides the complex periods, 9 doubles a sample, 1.2 MB at
# most; the envelope and the amplifier run on the chunk's distinct DAC
# outputs, at most tone points x n_env samples. (A swarm is one batch per
# iteration; the desk swarm, 30 x 384 samples, is smaller than one chunk.)
GRID_CHUNK_SAMPLES = 2**14


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


def particle_bounds(system: SystemModel, swarm: SwarmConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper bounds of the system's 2K + N search vector."""
    tones, beams = np.ones(system.tone_count), np.ones(system.element_count)
    upper = np.concatenate([swarm.amplitude_max * tones, 2.0 * np.pi * tones, beams])
    return np.zeros(upper.size), upper


def decode_particle(position: np.ndarray, system: SystemModel) -> tuple[ToneSet, PhaseWord]:
    """Split a particle into tone amplitudes/phases and integer phase levels.

    The relaxed beam variables clip to [0, 1], scale by 2^B - 1 and floor down; phases
    wrap modulo one turn so the upper bound 2*pi maps onto 0.
    """
    position = _as_floats(position, "position")
    if not np.isfinite(position).all():
        raise ConfigurationError("position must hold finite numbers")
    size = 2 * system.tone_count + system.element_count
    if position.shape != (size,):
        raise ConfigurationError(
            f"position must be the {size} entries of 2K tones and N beams, got {position.shape}"
        )
    amplitudes, phases, levels = _decode_swarm(position[None], system)
    tones = ToneSet(amplitudes[0], phases[0], system.tone_spacing)
    return tones, PhaseWord(levels[0], system.chain.ps_bits)


def _decode_swarm(
    positions: np.ndarray, system: SystemModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """decode_particle's rule on every row of a (P, 2K + N) swarm at once:
    the candidates' amplitudes, phases and phase levels as arrays."""
    tone_count, top = system.tone_count, 2**system.chain.ps_bits - 1
    amplitudes = positions[:, :tone_count]
    phases = np.mod(positions[:, tone_count : 2 * tone_count], 2.0 * np.pi)
    levels = np.floor(np.clip(positions[:, 2 * tone_count :], 0.0, 1.0) * top).astype(int)
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
    """The penalised fitness every search ranks by, counting the candidates it
    ranks. Decoded and grid candidates are valid by construction, so they are
    not checked again. Each search's batch or chunk is one call of rank."""

    def __init__(self, system: SystemModel, swarm: SwarmConfig):
        _check_penalty(system, swarm)
        self.system, self.swarm = system, swarm
        self.evaluations = 0

    def rank(self, amplitudes, phases, levels):
        """Fitness of a swarm's decoded rows, tones (P, K) under phase levels
        (P, N), row p under row p's word, and a function building candidate
        p's CandidateEval."""
        harvest, power = _evaluated(amplitudes, phases, levels, self.system)
        return self._ranked(harvest.p_out_dc, power)

    def _ranked(self, p_out_dc, power, candidates=1):
        """Fitness of harvests p_out_dc (P,) under consumption (P,), each row
        counted as candidates ranked, and a function building row p's
        CandidateEval."""
        values, feasible = _penalised(p_out_dc, power.p_total, self.swarm)
        self.evaluations += values.size * candidates

        def record(p: int) -> CandidateEval:
            # only the recorded row's fields are broadcast and read
            row = PowerBreakdown(
                *(float(np.broadcast_to(v, values.shape)[p]) for v in vars(power).values())
            )
            return CandidateEval(float(values[p]), float(p_out_dc[p]), row, bool(feasible[p]))

        return values, record

    def result(self, tones: ToneSet, word: PhaseWord, best: CandidateEval, trace):
        return OptimizationResult(
            tones, word, best.power, best.p_out_dc, best.feasible, best.fitness,
            np.asarray(trace), self.evaluations,
        )


def _levels(words, system: SystemModel):
    """The phase levels (..., N) of flat word indices (...), the last element fastest."""
    return np.stack(np.unravel_index(words, (2**system.chain.ps_bits,) * system.element_count), -1)


def _best_words(emission, system: SystemModel, swarm: SwarmConfig):
    """Each emission's (u, 2K+1) harvest under its best word and that word's
    flat index, (u, 2): the first word of least fitness with consumption
    scored 0, so the first feasible word, else the first of least penalised
    shortfall. A receive holds at most GRID_CHUNK_SAMPLES samples: all the
    words for as many emissions as fit, or one emission and as many words."""
    count = 2 ** (system.chain.ps_bits * system.element_count)
    words = min(count, max(1, GRID_CHUNK_SAMPLES // system.n_env))
    emissions = max(1, GRID_CHUNK_SAMPLES // (words * system.n_env))
    found = np.full((len(emission), 3), np.inf)  # fitness, harvest, word
    for e in range(0, len(emission), emissions):
        for first in range(0, count, words):
            flat = np.arange(first, min(first + words, count))
            received = _receive(emission[e : e + emissions, None], _levels(flat, system), system)
            p_out_dc = _harvest(received, system).p_out_dc
            if not np.isfinite(p_out_dc).all():
                raise NumericalError("evaluation produced a non-finite result")
            values = _penalised(p_out_dc, np.zeros(p_out_dc.shape), swarm)[0]
            rows, pick = np.arange(len(values)), np.argmin(values, axis=1)
            block = np.stack((values[rows, pick], p_out_dc[rows, pick], flat[pick]), axis=1)
            # a later block's word only if strictly less: ties keep the first
            better = block[:, 0] < found[e : e + emissions, 0]
            found[e : e + emissions][better] = block[better]
    return found[:, 1:]


class _GridObjective(_Objective):
    """A grid's objective, which ranks each tone point, in one step as the
    swarm's ranks its batch, by its least fitness over every word: its
    fitness under its DAC output's best word (_best_words), since a point's
    consumption does not read its word, nor an infeasible fitness the
    consumption. It keeps a table of the DAC outputs it has ranked, up to
    size of them, keyed by their exact bytes (+0.0 and -0.0 apart, no
    tolerance), a row an output; one the table holds is neither transmitted
    nor received again. Besides the ranked candidates, every (tone point,
    word), it counts the DAC outputs whose envelope and amplifier ran and
    the received periods."""

    def __init__(self, system: SystemModel, swarm: SwarmConfig, size: int):
        super().__init__(system, swarm)
        self.transmitted_rows = self.received_rows = 0
        self.words = 2 ** (system.chain.ps_bits * system.element_count)
        self.size, self.slots = size, {}  # slots: an output's bytes, its row in the table
        self.table = np.empty((0, 4))  # p_in, p_out, harvest, word

    def rank(self, amplitudes, phases):
        """Fitness of a grid's tone points (R, K) under their best words, a
        function building point p's CandidateEval, and the words' flat
        indices. The points are quantized; the envelope and the amplifier
        run once on each distinct DAC output the table does not hold. The
        table grows by those outputs and is cut back to its first size."""
        with np.errstate(**_RAISE):
            rows = _sampled(amplitudes, phases, self.system)[1]
            slots, held = self.slots, len(self.slots)
            # each row's bytes, from one C call; a new output takes the next slot
            # in first-occurrence order, and leaves the table again past its size
            keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
            for key in dict.fromkeys(keys):
                slots.setdefault(key, len(slots))
            index = list(map(slots.__getitem__, keys))
            new = list(slots)[held:]
            if new:
                new_rows = np.frombuffer(b"".join(new), rows.dtype).reshape(len(new), -1)
                emission, (*_, p_in, p_out) = _emitted(new_rows, self.system)
                best = _best_words(emission, self.system, self.swarm)
                self.transmitted_rows += len(new)
                self.received_rows += len(new) * self.words
                self.table = np.concatenate((self.table, np.column_stack((p_in, p_out, best))))
            p_in, p_out, p_out_dc, word = self.table[index].T
            self.table = self.table[: self.size]
            for key in new[self.size - held :]:
                del slots[key]
            power = _priced(p_out_dc, amplitudes, p_in, p_out, self.system)
        return *self._ranked(p_out_dc, power, self.words), word.astype(int)


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
    lower, upper = particle_bounds(system, swarm)
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
        return objective.rank(*_decode_swarm(positions, system))

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

    tones, word = decode_particle(g_position, system)
    return objective.result(tones, word, g_eval, trace)


def brute_force_grid(
    amplitude_points: int, phase_points: int, system: SystemModel, swarm: SwarmConfig
) -> OptimizationResult:
    """Exhaustive objective over a regular amplitude/phase grid and every phase word.

    Ground truth for toy instances; refuses grids beyond the 1e7-point budget.
    """
    if not all(_is_integer(n) and n >= 1 for n in (amplitude_points, phase_points)):
        raise ConfigurationError("grid needs at least one point, a whole number, per dimension")
    # Python ints: a numpy scalar's product would wrap past its dtype
    amplitude_points, phase_points = int(amplitude_points), int(phase_points)
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
    # word i % words. The objective ranks each tone point under its best
    # word, so a chunk is whole tone points, as many as GRID_CHUNK_SAMPLES
    # DAC samples hold (at least one), and the objective's table keeps as
    # many DAC outputs: a rank grows it by at most a chunk's new outputs and
    # cuts it back, so it holds at most two chunks' budget.
    radices = (amplitude_points,) * tone_count + (phase_points,) * tone_count
    tone_points = total // 2 ** (bits * element_count)
    chunk = max(1, GRID_CHUNK_SAMPLES // system.n_dac)
    objective = _GridObjective(system, swarm, chunk)

    best_fitness, best = np.inf, None
    for start in range(0, tone_points, chunk):
        points = np.arange(start, min(start + chunk, tone_points))
        digits = np.stack(np.unravel_index(points, radices), axis=1)
        amplitudes = amplitude_axis[digits[:, :tone_count]]
        phases = phase_axis[digits[:, tone_count:]]
        values, record, best_word = objective.rank(amplitudes, phases)
        # ties keep the first point in enumeration order: argmin within a
        # chunk, a strict improvement across chunks
        point = int(np.argmin(values))
        if values[point] < best_fitness:
            best_fitness = values[point]
            best = record(point), amplitudes[point], phases[point], best_word[point]
    best_eval, amplitudes, phases, word = best
    tones, levels = ToneSet(amplitudes, phases, system.tone_spacing), _levels(word, system)
    return objective.result(tones, PhaseWord(levels, bits), best_eval, [best_eval.fitness])
