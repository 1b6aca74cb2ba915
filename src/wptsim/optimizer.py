"""Joint waveform and beamforming search.

A global-best particle swarm minimizes total transmitter power under the
harvested-DC constraint, which enters the objective as a large finite penalty
plus the normalized violation so infeasible particles are still ranked and
pulled toward feasibility. A brute-force grid provides toy-scale ground truth.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .power_model import PowerBreakdown, dac_power
from .signal_chain import PhaseWord, ToneSet
from .simulation import SystemModel, evaluate_solution

# fraction of each dimension's range; unclamped velocities pin particles on bounds
VELOCITY_CLAMP = 0.2

GRID_BUDGET = 10_000_000


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
        if self.particles < 2:
            raise ConfigurationError("swarm needs at least 2 particles")
        if self.iterations < 0:
            raise ConfigurationError("iterations must be nonnegative")
        if not 0.0 <= self.inertia <= 1.0:
            raise ConfigurationError("inertia must lie in [0, 1]")
        if self.cognitive <= 0 or self.social <= 0:
            raise ConfigurationError("cognitive and social weights must be positive")
        if self.amplitude_max <= 0:
            raise ConfigurationError("amplitude_max must be positive")
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
        raise DomainError("particle must carry 2K tone entries plus N beam entries")
    amplitudes = position[:tone_count]
    phases = np.mod(position[tone_count : 2 * tone_count], 2.0 * np.pi)
    relaxed = position[2 * tone_count :]
    top = 2**ps_bits - 1
    levels = np.clip(np.floor(relaxed * top).astype(int), 0, top)
    return ToneSet(amplitudes, phases, tone_spacing), PhaseWord(levels, ps_bits)


def evaluate_candidate(
    tones: ToneSet, word: PhaseWord, system: SystemModel, swarm: SwarmConfig
) -> CandidateEval:
    """Objective of one candidate: consumption if feasible, ranked penalty if not."""
    outcome = evaluate_solution(tones, word, system)
    p_out = outcome.harvest.p_out_dc
    feasible = p_out >= swarm.required_dc_power
    if feasible:
        value = outcome.power.p_total
    else:
        value = swarm.penalty + (swarm.required_dc_power - p_out) / swarm.required_dc_power
    return CandidateEval(float(value), float(p_out), outcome.power, bool(feasible))


def _evaluate_position(
    position: np.ndarray, system: SystemModel, swarm: SwarmConfig
) -> CandidateEval:
    tones, word = decode_particle(
        position, system.tone_count, system.tone_spacing, system.chain.ps_bits
    )
    return evaluate_candidate(tones, word, system, swarm)


def fitness(position: np.ndarray, system: SystemModel, swarm: SwarmConfig) -> float:
    """Penalized objective of a raw particle position."""
    return _evaluate_position(position, system, swarm).fitness


def _check_penalty(system: SystemModel, swarm: SwarmConfig) -> None:
    """Refuse a penalty that some feasible candidate's consumption could reach.

    The HPA output stays below saturation and every tone amplitude below
    amplitude_max, so the sum below bounds p_total from above.
    """
    chain, power = system.chain, system.power
    bound = (
        dac_power(chain.dac_bits, chain.dac_sample_rate, power)
        + power.mixer_power
        + power.oscillator_power
        + chain.hpa_saturation**2 / power.hpa_output_resistance
        + swarm.amplitude_max**2
    )
    if not swarm.penalty > bound:
        raise ConfigurationError(
            f"swarm.penalty {swarm.penalty:g} W does not exceed the {bound:g} W bound"
            " on transmitter consumption"
        )


def _substream(seed: int, iteration: int, particle: int) -> np.random.Generator:
    # independent per-(iteration, particle) streams keep parallel schedules
    # and reruns bit-identical
    return np.random.default_rng(np.random.SeedSequence((seed, iteration, particle)))


def pso_run(system: SystemModel, swarm: SwarmConfig, callback=None) -> OptimizationResult:
    """Global-best PSO over [amplitudes, phases, relaxed phase words].

    Velocities start at zero, draws come from per-(iteration, particle)
    substreams, positions clamp to the bounds with the clamped velocity
    component zeroed, and ties keep the incumbent best. The global-best trace
    (initial swarm plus one entry per iteration) is non-increasing.
    """
    _check_penalty(system, swarm)
    lower, upper = particle_bounds(system.tone_count, system.element_count, swarm.amplitude_max)
    n_var = lower.size
    span = upper - lower
    v_max = VELOCITY_CLAMP * span
    particles = range(swarm.particles)

    def evaluate(positions):
        evals = [_evaluate_position(position, system, swarm) for position in positions]
        return evals, np.array([e.fitness for e in evals])

    draws = np.array([_substream(swarm.seed, 0, i).random(n_var) for i in particles])
    positions = lower + draws * span
    velocities = np.zeros_like(positions)
    evals, best_fitness = evaluate(positions)
    best_positions = positions.copy()
    g_index = int(np.argmin(best_fitness))
    g_position = best_positions[g_index].copy()
    g_eval = evals[g_index]
    trace = [g_eval.fitness]

    for iteration in range(1, swarm.iterations + 1):
        # per particle, rows r_cog and r_soc: the same draws as two random(n_var) calls
        draws = np.array(
            [_substream(swarm.seed, iteration, i).random((2, n_var)) for i in particles]
        )
        velocities = (
            swarm.inertia * velocities
            + swarm.cognitive * draws[:, 0] * (best_positions - positions)
            + swarm.social * draws[:, 1] * (g_position - positions)
        )
        np.clip(velocities, -v_max, v_max, out=velocities)
        moved = positions + velocities
        velocities[(moved < lower) | (moved > upper)] = 0.0
        positions = np.clip(moved, lower, upper)

        evals, current = evaluate(positions)
        improved = current < best_fitness
        best_fitness[improved] = current[improved]
        best_positions[improved] = positions[improved]
        # the incumbent is the least of the old personal bests, so only a particle
        # that improved in this iteration can beat it, and evals holds its record
        g_index = int(np.argmin(best_fitness))
        if best_fitness[g_index] < g_eval.fitness:
            g_eval = evals[g_index]
            g_position = best_positions[g_index].copy()
        trace.append(g_eval.fitness)
        if callback is not None:
            callback(iteration, positions, g_eval.fitness)

    tones, word = decode_particle(
        g_position, system.tone_count, system.tone_spacing, system.chain.ps_bits
    )
    return OptimizationResult(
        tones=tones,
        phase_word=word,
        power=g_eval.power,
        p_out_dc=g_eval.p_out_dc,
        feasible=g_eval.feasible,
        best_fitness=g_eval.fitness,
        fitness_trace=np.asarray(trace),
        evaluations=swarm.particles * (swarm.iterations + 1),
    )


def brute_force_grid(
    amplitude_points: int, phase_points: int, system: SystemModel, swarm: SwarmConfig
) -> OptimizationResult:
    """Exhaustive objective over a regular amplitude/phase grid and every phase word.

    Ground truth for toy instances; refuses grids beyond the 1e7-point budget.
    """
    if amplitude_points < 1 or phase_points < 1:
        raise DomainError("grid needs at least one point per dimension")
    _check_penalty(system, swarm)
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
    levels_axis = range(2**bits)

    best_eval = None
    best_tones = None
    best_word = None
    for amplitudes in itertools.product(amplitude_axis, repeat=tone_count):
        for phases in itertools.product(phase_axis, repeat=tone_count):
            tones = ToneSet(np.array(amplitudes), np.array(phases), system.tone_spacing)
            for levels in itertools.product(levels_axis, repeat=element_count):
                word = PhaseWord(np.array(levels), bits)
                candidate = evaluate_candidate(tones, word, system, swarm)
                if best_eval is None or candidate.fitness < best_eval.fitness:
                    best_eval = candidate
                    best_tones = tones
                    best_word = word
    return OptimizationResult(
        tones=best_tones,
        phase_word=best_word,
        power=best_eval.power,
        p_out_dc=best_eval.p_out_dc,
        feasible=best_eval.feasible,
        best_fitness=best_eval.fitness,
        fitness_trace=np.asarray([best_eval.fitness]),
        evaluations=total,
    )
