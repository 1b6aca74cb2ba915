
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import desk_setup, toy_setup
from wptsim import (
    ConfigurationError,
    PhaseWord,
    SwarmConfig,
    SystemModel,
    ToneSet,
    brute_force_grid,
    decode_particle,
    evaluate_candidate,
    evaluate_solution,
    fitness,
    particle_bounds,
    pso_run,
)
from wptsim.optimizer import VELOCITY_CLAMP, OptimizationResult, _substream

SPACING = 1.25e6


class TestDecodeParticle:
    def test_zero_maps_to_level_zero(self):
        z = np.array([1.0, 0.0, 0.0])
        _, word = decode_particle(z, 1, SPACING, 3)
        assert word.levels[0] == 0

    def test_unit_maps_to_top_level(self):
        z = np.array([1.0, 0.0, 1.0])
        _, word = decode_particle(z, 1, SPACING, 3)
        assert word.levels[0] == 7

    def test_half_maps_to_three(self):
        z = np.array([1.0, 0.0, 0.5])
        _, word = decode_particle(z, 1, SPACING, 3)
        assert word.levels[0] == 3

    def test_levels_always_in_range(self, rng):
        for _ in range(50):
            z = np.concatenate([rng.random(4) * 300, rng.random(4) * 2 * np.pi, rng.random(9)])
            _, word = decode_particle(z, 4, SPACING, 3)
            assert np.all((word.levels >= 0) & (word.levels <= 7))

    def test_phase_upper_bound_wraps(self):
        z = np.array([1.0, 2.0 * np.pi, 0.0])
        tones, _ = decode_particle(z, 1, SPACING, 3)
        assert tones.phases[0] == 0.0

    def test_bounds_shape(self):
        lower, upper = particle_bounds(8, 25, 300.0)
        assert lower.size == upper.size == 41
        assert np.all(lower == 0.0)
        assert upper[0] == 300.0 and upper[8] == 2.0 * np.pi and upper[-1] == 1.0


class TestFitness:
    def test_feasible_returns_total_power_exactly(self):
        setup = desk_setup()
        tones = ToneSet(np.full(8, 1.0), np.zeros(8), SPACING)
        word = PhaseWord(np.zeros(25, dtype=int), 3)
        candidate = evaluate_candidate(tones, word, setup.system, setup.swarm)
        assert candidate.feasible
        outcome = evaluate_solution(tones, word, setup.system)
        assert candidate.fitness == outcome.power.p_total

    def test_zero_amplitudes_blow_past_penalty(self):
        setup = desk_setup()
        z = np.zeros(41)
        value = fitness(z, setup.system, setup.swarm)
        assert value > setup.swarm.penalty

    def test_infeasible_ranked_by_violation(self):
        # both harvest below the 20 uW target, but 0.3 V tones harvest more
        setup = desk_setup()
        word = PhaseWord(np.zeros(25, dtype=int), 3)
        weak = evaluate_candidate(
            ToneSet(np.full(8, 0.3), np.zeros(8), SPACING), word, setup.system, setup.swarm
        )
        weaker = evaluate_candidate(
            ToneSet(np.full(8, 0.2), np.zeros(8), SPACING), word, setup.system, setup.swarm
        )
        assert not weak.feasible and not weaker.feasible
        assert weak.p_out_dc > weaker.p_out_dc
        assert weak.fitness < weaker.fitness

    def test_feasible_always_beats_infeasible(self):
        setup = desk_setup()
        word = PhaseWord(np.zeros(25, dtype=int), 3)
        feasible = evaluate_candidate(
            ToneSet(np.full(8, 1.0), np.zeros(8), SPACING), word, setup.system, setup.swarm
        )
        infeasible = evaluate_candidate(
            ToneSet(np.full(8, 1e-4), np.zeros(8), SPACING), word, setup.system, setup.swarm
        )
        assert feasible.fitness < infeasible.fitness

    def test_repeat_evaluations_bit_identical(self):
        setup = desk_setup()
        z = np.concatenate([np.full(8, 0.7), np.linspace(0, 6, 8), np.linspace(0, 1, 25)])
        values = {fitness(z, setup.system, setup.swarm) for _ in range(5)}
        assert len(values) == 1


class TestPsoRun:
    def test_zero_iterations_returns_initial_best(self):
        setup = toy_setup(particles=8, iterations=0, seed=3)
        result = pso_run(setup.system, setup.swarm)
        assert result.fitness_trace.size == 1
        assert result.evaluations == 8

    def test_equal_seeds_bit_identical(self):
        setup = toy_setup(particles=10, iterations=15, seed=11)
        a = pso_run(setup.system, setup.swarm)
        b = pso_run(setup.system, setup.swarm)
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.fitness_trace, b.fitness_trace)
        assert np.array_equal(a.tones.amplitudes, b.tones.amplitudes)
        assert np.array_equal(a.phase_word.levels, b.phase_word.levels)

    def test_different_seeds_differ(self):
        a = pso_run(*_system_swarm(toy_setup(particles=10, iterations=15, seed=1)))
        b = pso_run(*_system_swarm(toy_setup(particles=10, iterations=15, seed=2)))
        assert a.best_fitness != b.best_fitness

    def test_trace_non_increasing_and_bounds_respected(self):
        setup = toy_setup(particles=12, iterations=30, seed=5)
        lower, upper = particle_bounds(
            setup.system.tone_count, setup.system.element_count, setup.swarm.amplitude_max
        )
        seen = []

        def watch(iteration, positions, best):
            seen.append(iteration)
            assert np.all(positions >= lower - 1e-15)
            assert np.all(positions <= upper + 1e-15)

        result = pso_run(setup.system, setup.swarm, callback=watch)
        assert seen == list(range(1, 31))
        assert np.all(np.diff(result.fitness_trace) <= 0.0)

    def test_result_consistent_with_resimulation(self):
        setup = toy_setup(particles=10, iterations=20, seed=9)
        result = pso_run(setup.system, setup.swarm)
        outcome = evaluate_solution(result.tones, result.phase_word, setup.system)
        assert_allclose(outcome.harvest.p_out_dc, result.p_out_dc, rtol=0)
        assert_allclose(outcome.power.p_total, result.power.p_total, rtol=0)


def _system_swarm(setup):
    return setup.system, setup.swarm


def serial_pso_run(system: SystemModel, swarm: SwarmConfig, callback=None) -> OptimizationResult:
    """The per-particle swarm loop that pso_run's array update must reproduce."""
    lower, upper = particle_bounds(system.tone_count, system.element_count, swarm.amplitude_max)
    n_var = lower.size
    span = upper - lower
    v_max = VELOCITY_CLAMP * span

    def evaluate(position):
        tones, word = decode_particle(
            position, system.tone_count, system.tone_spacing, system.chain.ps_bits
        )
        return evaluate_candidate(tones, word, system, swarm)

    positions = np.empty((swarm.particles, n_var))
    for i in range(swarm.particles):
        positions[i] = lower + _substream(swarm.seed, 0, i).random(n_var) * span
    velocities = np.zeros_like(positions)

    evals = [evaluate(positions[i]) for i in range(swarm.particles)]
    best_positions = positions.copy()
    best_evals = list(evals)
    g_index = min(range(swarm.particles), key=lambda i: best_evals[i].fitness)
    g_position = best_positions[g_index].copy()
    g_eval = best_evals[g_index]
    trace = [g_eval.fitness]
    evaluations = swarm.particles

    for iteration in range(1, swarm.iterations + 1):
        for i in range(swarm.particles):
            rng = _substream(swarm.seed, iteration, i)
            r_cog = rng.random(n_var)
            r_soc = rng.random(n_var)
            velocity = (
                swarm.inertia * velocities[i]
                + swarm.cognitive * r_cog * (best_positions[i] - positions[i])
                + swarm.social * r_soc * (g_position - positions[i])
            )
            np.clip(velocity, -v_max, v_max, out=velocity)
            moved = positions[i] + velocity
            clamped = (moved < lower) | (moved > upper)
            moved = np.clip(moved, lower, upper)
            velocity[clamped] = 0.0
            positions[i] = moved
            velocities[i] = velocity

        evals = [evaluate(positions[i]) for i in range(swarm.particles)]
        evaluations += swarm.particles
        for i in range(swarm.particles):
            if evals[i].fitness < best_evals[i].fitness:
                best_evals[i] = evals[i]
                best_positions[i] = positions[i].copy()
        for i in range(swarm.particles):
            if best_evals[i].fitness < g_eval.fitness:
                g_eval = best_evals[i]
                g_position = best_positions[i].copy()
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
        evaluations=evaluations,
    )


def _assert_same_run(system, swarm):
    reference = serial_pso_run(system, swarm)
    result = pso_run(system, swarm)
    assert np.array_equal(result.fitness_trace, reference.fitness_trace)
    assert np.array_equal(result.tones.amplitudes, reference.tones.amplitudes)
    assert np.array_equal(result.tones.phases, reference.tones.phases)
    assert np.array_equal(result.phase_word.levels, reference.phase_word.levels)
    assert result.evaluations == reference.evaluations
    assert result.best_fitness == reference.best_fitness
    assert result.p_out_dc == reference.p_out_dc
    assert result.power == reference.power


_TOY = toy_setup()


class TestPsoMatchesSerialLoop:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        particles=st.integers(2, 8),
        iterations=st.integers(0, 6),
    )
    def test_toy_bit_identical(self, seed, particles, iterations):
        swarm = dataclasses.replace(
            _TOY.swarm, seed=seed, particles=particles, iterations=iterations
        )
        _assert_same_run(_TOY.system, swarm)

    def test_desk_seed_bit_identical(self):
        setup = desk_setup(swarm={"particles": 12, "iterations": 8, "seed": 7})
        _assert_same_run(setup.system, setup.swarm)


class TestBruteForceGrid:
    def test_exhaustive_count_and_minimum(self):
        setup = desk_setup(
            waveform={"tone_count": 1},
            array={"rows": 1, "cols": 1},
            chain={"ps_bits": 1, "dac_bits": 8},
        )
        result = brute_force_grid(11, 8, setup.system, setup.swarm)
        assert result.evaluations == 176
        # independent re-enumeration of the same grid
        best = np.inf
        for amp in np.linspace(0.0, 300.0, 11):
            for phase in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
                for level in (0, 1):
                    tones = ToneSet([amp], [phase], SPACING)
                    word = PhaseWord([level], 1)
                    value = evaluate_candidate(tones, word, setup.system, setup.swarm).fitness
                    best = min(best, value)
        assert result.best_fitness == best

    def test_refusal_above_budget(self):
        setup = desk_setup()  # K=8, N=25, B=3 is astronomically past 1e7
        with pytest.raises(ConfigurationError):
            brute_force_grid(11, 8, setup.system, setup.swarm)

    def test_refining_never_increases_optimum(self):
        setup = desk_setup(
            waveform={"tone_count": 1},
            array={"rows": 1, "cols": 1},
            chain={"ps_bits": 1, "dac_bits": 8},
        )
        coarse = brute_force_grid(11, 8, setup.system, setup.swarm)
        fine = brute_force_grid(21, 8, setup.system, setup.swarm)  # nested superset
        assert fine.best_fitness <= coarse.best_fitness

    def test_grid_with_feasible_point_is_feasible(self):
        setup = toy_setup()
        result = brute_force_grid(11, 8, setup.system, setup.swarm)
        assert result.feasible


class TestSwarmConfig:
    def test_penalty_must_exceed_consumption_bound(self):
        # a 36-bit DAC alone draws 1.03e6 W, above the default 1e6 W penalty
        setup = desk_setup(
            waveform={"tone_count": 1},
            array={"rows": 1, "cols": 2},
            chain={"ps_bits": 1, "dac_bits": 36},
        )
        with pytest.raises(ConfigurationError, match="swarm.penalty"):
            pso_run(setup.system, setup.swarm)
        with pytest.raises(ConfigurationError, match="swarm.penalty"):
            brute_force_grid(2, 2, setup.system, setup.swarm)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SwarmConfig(particles=1)
        with pytest.raises(ConfigurationError):
            SwarmConfig(inertia=1.5)
        with pytest.raises(ConfigurationError):
            SwarmConfig(cognitive=0.0)
        with pytest.raises(ConfigurationError):
            SwarmConfig(penalty=-1.0)
        with pytest.raises(ConfigurationError):
            SwarmConfig(seed=-1)
