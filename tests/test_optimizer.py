
import dataclasses
import itertools
import math

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
    evaluate_batch,
    evaluate_candidate,
    evaluate_solution,
    particle_bounds,
    pso_run,
)
import wptsim.optimizer
from wptsim.optimizer import GRID_CHUNK_SAMPLES, VELOCITY_CLAMP, OptimizationResult
from wptsim.signal_chain import quantize_dac, synthesize_multitone

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
        value = evaluate_candidate(*decode_particle(z, 8, SPACING, 3), setup.system, setup.swarm)
        assert value.fitness > setup.swarm.penalty

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
        system, swarm = setup.system, setup.swarm
        values = {
            evaluate_candidate(*decode_particle(z, 8, SPACING, 3), system, swarm).fitness
            for _ in range(5)
        }
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
    # one generator, drawn particle by particle: the initial position, then
    # each iteration's r_cog and r_soc
    rng = np.random.default_rng(swarm.seed)

    def evaluate(position):
        tones, word = decode_particle(
            position, system.tone_count, system.tone_spacing, system.chain.ps_bits
        )
        return evaluate_candidate(tones, word, system, swarm)

    positions = np.empty((swarm.particles, n_var))
    for i in range(swarm.particles):
        positions[i] = lower + rng.random(n_var) * span
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


def _count_batches(monkeypatch) -> list:
    """Record how many candidates each call of the optimizer's objective ranks,
    and fail on any single-candidate evaluate_solution call."""
    sizes = []
    rank = wptsim.optimizer._Objective.rank

    def counting(self, sent, levels):
        values, record = rank(self, sent, levels)
        sizes.append(values.size)
        return values, record

    def serial(*args):
        raise AssertionError("the optimizer evaluated one candidate at a time")

    monkeypatch.setattr(wptsim.optimizer._Objective, "rank", counting)
    monkeypatch.setattr(wptsim.optimizer, "evaluate_solution", serial)
    return sizes


class TestBatchedSearch:
    def test_pso_evaluates_each_swarm_as_one_batch(self, monkeypatch):
        sizes = _count_batches(monkeypatch)
        setup = toy_setup(particles=6, iterations=4, seed=2)
        result = pso_run(setup.system, setup.swarm)
        assert sizes == [6] * 5
        assert result.evaluations == 30

    @pytest.mark.parametrize("particles, iterations", [(2, 0), (6, 4), (20, 12)])
    def test_pso_makes_one_generator_per_run(self, monkeypatch, particles, iterations):
        calls = []
        default_rng = np.random.default_rng

        def counting(*args):
            calls.append(args)
            return default_rng(*args)

        monkeypatch.setattr(np.random, "default_rng", counting)
        setup = toy_setup(particles=particles, iterations=iterations, seed=4)
        pso_run(setup.system, setup.swarm)
        assert calls == [(4,)]

    def test_grid_evaluates_in_memory_bounded_chunks(self, monkeypatch):
        # a chunk synthesizes and quantizes its tone points at once, transmits
        # each distinct DAC output once and receives each distinct emission
        # under every word; no chunk holds more than GRID_CHUNK_SAMPLES DAC
        # samples, ranked values or received envelope samples in one array
        ranked = _count_batches(monkeypatch)
        objectives, quantized, received = [], [], []
        objective_init = wptsim.optimizer._Objective.__init__
        quantize, receive = wptsim.simulation.quantize_dac, wptsim.simulation._receive

        def keeping_init(self, *args):
            objective_init(self, *args)
            objectives.append(self)

        def counting_quantize(*args):
            samples = quantize(*args)
            quantized.append(samples.shape)
            return samples

        def counting_receive(*args):
            periods = receive(*args)
            received.append(periods.shape)
            return periods

        monkeypatch.setattr(wptsim.optimizer._Objective, "__init__", keeping_init)
        monkeypatch.setattr(wptsim.simulation, "quantize_dac", counting_quantize)
        monkeypatch.setattr(wptsim.simulation, "_receive", counting_receive)
        setup = toy_setup()
        n_dac, m = setup.system.n_dac, setup.system.n_env
        result = brute_force_grid(11, 23, setup.system, setup.swarm)
        (objective,) = objectives
        assert result.evaluations == objective.evaluations == sum(ranked) == 1012
        # 204 tone points of 80 DAC samples fill a chunk: 253 = 204 + 49 tone
        # points, whose 300 V grid aliases to 6 and 5 distinct DAC outputs
        points = GRID_CHUNK_SAMPLES // n_dac
        assert points == 204
        assert quantized == [(204, 1, n_dac), (49, 1, n_dac)]
        assert ranked == [204 * 4, 49 * 4]
        assert received == [(6, 4, m), (5, 4, m)]
        assert objective.transmitted_rows == 11
        assert objective.received_rows == sum(math.prod(shape[:-1]) for shape in received) == 44
        assert max(math.prod(shape) for shape in quantized) <= GRID_CHUNK_SAMPLES
        assert max(ranked) <= GRID_CHUNK_SAMPLES
        assert max(math.prod(shape) for shape in received) <= GRID_CHUNK_SAMPLES

        # 128 words x 192 samples exceed a receive: the 6 tone points are one
        # chunk, ranked against all 128 words at once, and each of their 3
        # distinct emissions is received under 85 and then 43 words
        objectives.clear(), quantized.clear(), received.clear(), ranked.clear()
        system = _seven_element_setup().system
        assert 128 * system.n_env > GRID_CHUNK_SAMPLES
        brute_force_grid(3, 2, system, setup.swarm)
        (objective,) = objectives
        words = GRID_CHUNK_SAMPLES // system.n_env
        assert words == 85
        assert quantized == [(6, 1, system.n_dac)] and ranked == [6 * 128]
        assert received == [(1, words, system.n_env), (1, 128 - words, system.n_env)] * 3
        assert (objective.transmitted_rows, objective.received_rows) == (3, 3 * 128)

    @pytest.mark.parametrize("required", [20e-6, 0.0])
    def test_chunked_grid_matches_per_point_enumeration(self, monkeypatch, required):
        # 11 x 23 x 4 = 1012 points, not a multiple of the chunk: 204 tone
        # points of 80 DAC samples at the default bound, 21 at a bound of
        # 21 x 80. With no harvest required the zero-amplitude points, the
        # first 92 in enumeration order, tie exactly for the least
        # consumption, inside the first chunk or across a chunk boundary, and
        # the first of them must win
        setup = toy_setup()
        system = setup.system
        swarm = dataclasses.replace(setup.swarm, required_dc_power=required)
        values, candidates = [], []
        for amplitude in np.linspace(0.0, swarm.amplitude_max, 11):
            for phase in np.linspace(0.0, 2 * np.pi, 23, endpoint=False):
                for levels in itertools.product((0, 1), repeat=2):
                    tones, word = ToneSet([amplitude], [phase], SPACING), PhaseWord(levels, 1)
                    values.append(evaluate_candidate(tones, word, system, swarm).fitness)
                    candidates.append((tones, word))
        best = int(np.argmin(values))
        tones, word = candidates[best]
        if required == 0.0:
            assert best == 0 and values.count(values[0]) == 92
        for bound, chunk in ((GRID_CHUNK_SAMPLES, 816), (21 * 80, 84)):
            # the grid's chunk: whole tone points of 4 words each
            assert (bound // system.n_dac) * 4 == chunk and 1012 % chunk != 0
            assert (92 > chunk) == (bound < GRID_CHUNK_SAMPLES)
            monkeypatch.setattr(wptsim.optimizer, "GRID_CHUNK_SAMPLES", bound)
            result = brute_force_grid(11, 23, system, swarm)
            assert result.best_fitness == values[best]
            assert np.array_equal(result.tones.amplitudes, tones.amplitudes)
            assert np.array_equal(result.tones.phases, tones.phases)
            assert np.array_equal(result.phase_word.levels, word.levels)


    @pytest.mark.parametrize("required", [20e-6, 0.0])
    def test_word_split_grid_matches_per_point_enumeration(self, monkeypatch, required):
        # 3 x 2 tone points x 128 words. At the default bound they are one
        # chunk, and each distinct emission is received under 85 and then 43
        # words; at a bound of 100 each tone point is a chunk of its own,
        # ranked under 100 and then 28 words. With no harvest required every
        # word of a tone point ties, the zero-amplitude points first, across
        # the split and across tone points, and the first of them must win
        setup = _seven_element_setup()
        system = setup.system
        swarm = dataclasses.replace(setup.swarm, required_dc_power=required)
        values, candidates = [], []
        for amplitude in np.linspace(0.0, swarm.amplitude_max, 3):
            for phase in np.linspace(0.0, 2 * np.pi, 2, endpoint=False):
                for levels in itertools.product((0, 1), repeat=7):
                    tones, word = ToneSet([amplitude], [phase], SPACING), PhaseWord(levels, 1)
                    values.append(evaluate_candidate(tones, word, system, swarm).fitness)
                    candidates.append((tones, word))
        best = int(np.argmin(values))
        tones, word = candidates[best]
        if required == 0.0:
            assert best == 0 and values.count(values[0]) == 256
        for bound in (GRID_CHUNK_SAMPLES, 100):
            assert bound // system.n_env < 128
            monkeypatch.setattr(wptsim.optimizer, "GRID_CHUNK_SAMPLES", bound)
            result = brute_force_grid(3, 2, system, swarm)
            assert result.best_fitness == values[best]
            assert np.array_equal(result.tones.amplitudes, tones.amplitudes)
            assert np.array_equal(result.tones.phases, tones.phases)
            assert np.array_equal(result.phase_word.levels, word.levels)


def _seven_element_setup():
    """K = 1 tone, N = 7 elements of 1 bit: 128 words, more than a grid chunk holds."""
    return desk_setup(
        waveform={"tone_count": 1},
        array={"rows": 1, "cols": 7},
        chain={"ps_bits": 1, "dac_bits": 8},
    )


_GRID_SYSTEMS = {
    "toy": toy_setup().system,
    "K2-N3-B2": desk_setup(
        waveform={"tone_count": 2}, array={"rows": 1, "cols": 3}, chain={"ps_bits": 2}
    ).system,
    "K1-N7-B1": _seven_element_setup().system,
}


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(_GRID_SYSTEMS)),
    amplitude_points=st.integers(1, 6),
    phase_points=st.integers(1, 6),
    amplitude_max=st.sampled_from([1.0, 30.0, 300.0]),
)
def test_grid_rows_equal_batch_rows(name, amplitude_points, phase_points, amplitude_max):
    # the grid transmits a chunk of tone points at once, as (rows, 1, K)
    # tones, and ranks them against every word; each (tone point, word) the
    # objective harvests and prices must equal evaluate_batch on that row to
    # the bit, whichever rows' DAC outputs were deduplicated
    system = _GRID_SYSTEMS[name]
    tone_count, bits = system.tone_count, system.chain.ps_bits
    if tone_count == 2:
        amplitude_points, phase_points = min(amplitude_points, 2), min(phase_points, 2)
    swarm = SwarmConfig(amplitude_max=amplitude_max)
    chunks = []
    transmitted, harvested = wptsim.optimizer._transmitted, wptsim.optimizer._harvested

    def spy_transmitted(amplitudes, phases, system):
        assert amplitudes.shape[1:] == phases.shape[1:] == (1, tone_count)
        chunks.append({"amplitudes": amplitudes[:, 0], "phases": phases[:, 0], "results": []})
        return transmitted(amplitudes, phases, system)

    def spy_harvested(*args):
        chunks[-1]["results"].append(harvested(*args))
        return chunks[-1]["results"][-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wptsim.optimizer, "_transmitted", spy_transmitted)
        patch.setattr(wptsim.optimizer, "_harvested", spy_harvested)
        brute_force_grid(amplitude_points, phase_points, system, swarm)

    words = 2 ** (bits * system.element_count)
    levels = np.stack(np.unravel_index(np.arange(words), (2**bits,) * system.element_count), -1)
    points = sum(len(chunk["amplitudes"]) for chunk in chunks)
    assert points == (amplitude_points * phase_points) ** tone_count
    for chunk in chunks:
        amplitudes, phases, results = chunk["amplitudes"], chunk["phases"], chunk["results"]
        rows = len(amplitudes)
        batch_harvest, batch_power = evaluate_batch(
            np.repeat(amplitudes, words, axis=0),
            np.repeat(phases, words, axis=0),
            np.tile(levels, (rows, 1)),
            system,
        )
        # each rank's harvest is (rows, words ranked); its p_total (rows, 1)
        grid = {
            "p_out_dc": np.concatenate([h.p_out_dc for h, _ in results], axis=1),
            "rhs_log": np.concatenate([h.rhs_log for h, _ in results], axis=1),
            "v_out_dc": np.concatenate([h.v_out_dc for h, _ in results], axis=1),
            "p_total": np.concatenate(
                [np.broadcast_to(p.p_total, h.p_out_dc.shape) for h, p in results], axis=1
            ),
        }
        batch = {
            "p_out_dc": batch_harvest.p_out_dc,
            "rhs_log": batch_harvest.rhs_log,
            "v_out_dc": batch_harvest.v_out_dc,
            "p_total": batch_power.p_total,
        }
        for field, values in grid.items():
            assert values.shape == (rows, words)
            assert np.array_equal(values, batch[field].reshape(rows, words)), field


_RANK_SYSTEMS = {"desk": desk_setup().system, "toy": _TOY.system}


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(_RANK_SYSTEMS)),
    particles=st.integers(1, 6),
    words=st.integers(1, 4),
    required=st.sampled_from([0.0, 20e-6, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranked_rows_equal_the_serial_fitness(name, particles, words, required, seed):
    # the objective ranks decoded candidates in the swarm's (P, .) shape and
    # in the grid's, (rows, 1, K) tones against (W, N) words; every flat row
    # must equal evaluate_candidate on its candidate, record included, and be
    # counted. Building each row's ToneSet and PhaseWord checks that the
    # decode made it valid. Amplitudes span four decades, so some rows are
    # feasible and some not.
    system = _RANK_SYSTEMS[name]
    tone_count, bits = system.tone_count, system.chain.ps_bits
    swarm = SwarmConfig(required_dc_power=required)
    lower, upper = particle_bounds(tone_count, system.element_count, swarm.amplitude_max)
    rng = np.random.default_rng(seed)
    positions = lower + rng.random((particles, lower.size)) * (upper - lower)
    positions[:, :tone_count] *= 10.0 ** -rng.uniform(0.0, 4.0, (particles, 1))
    amplitudes, phases, levels = wptsim.optimizer._decode_swarm(positions, tone_count, bits)

    def serial(point, word):
        tones = ToneSet(amplitudes[point], phases[point], system.tone_spacing)
        return evaluate_candidate(tones, PhaseWord(levels[word], bits), system, swarm)

    objective = wptsim.optimizer._Objective(system, swarm)
    values, record = objective.rank(objective.transmit(amplitudes, phases), levels)
    assert values.shape == (particles,) and objective.evaluations == particles
    for p in range(particles):
        expected = serial(p, p)
        assert values[p] == expected.fitness and record(p) == expected

    words = min(words, particles)
    sent = objective.transmit(amplitudes[:, None], phases[:, None])
    values, record = objective.rank(sent, levels[:words])
    assert values.shape == (particles * words,)
    assert objective.evaluations == particles + particles * words
    for p in range(particles * words):
        expected = serial(*divmod(p, words))
        assert values[p] == expected.fitness and record(p) == expected


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(_RANK_SYSTEMS)),
    tone_sets=st.integers(1, 4),
    rows=st.integers(1, 12),
    words=st.integers(1, 4),
    required=st.sampled_from([0.0, 20e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_repeated_and_aliased_rows_equal_the_serial_evaluation(
    name, tone_sets, rows, words, required, seed
):
    # rows drawn with repeats, in any order, from tone sets and their DAC
    # aliases: the same phases at twice the amplitudes, which the DAC maps to
    # the same output below half a step (and mostly past its range) while
    # their consumption differs. The transmit runs once per distinct DAC
    # output, yet every row of evaluate_batch and of the objective's rank, in
    # both shapes, must equal the serial evaluation of its own candidate
    system = _RANK_SYSTEMS[name]
    tone_count, elements, bits = system.tone_count, system.element_count, system.chain.ps_bits
    swarm = SwarmConfig(required_dc_power=required)
    rng = np.random.default_rng(seed)
    scales = rng.choice([1e-4, 1.0, 150.0], (tone_sets, 1))
    base = rng.uniform(0.5, 1.0, (tone_sets, tone_count)) * scales
    pick = rng.integers(0, 2 * tone_sets, rows)
    amplitudes = np.concatenate([base, 2.0 * base])[pick]
    phases = np.tile(rng.uniform(0.0, 2.0 * np.pi, (tone_sets, tone_count)), (2, 1))[pick]
    levels = rng.integers(0, 2**bits, (rows, elements))
    dac = quantize_dac(
        synthesize_multitone(amplitudes, phases, system.n_dac),
        system.chain.dac_bits,
        system.chain.dac_range,
    )
    distinct = len({row.tobytes() for row in dac})

    def serial(row, word):
        tones = ToneSet(amplitudes[row], phases[row], system.tone_spacing)
        return evaluate_candidate(tones, PhaseWord(word, bits), system, swarm)

    harvest, power = evaluate_batch(amplitudes, phases, levels, system)
    for p in range(rows):
        tones = ToneSet(amplitudes[p], phases[p], system.tone_spacing)
        outcome = evaluate_solution(tones, PhaseWord(levels[p], bits), system)
        for batch, single in ((harvest, outcome.harvest), (power, outcome.power)):
            for field, value in vars(single).items():
                assert np.array_equal(getattr(batch, field)[p], value), field

    objective = wptsim.optimizer._Objective(system, swarm)
    values, record = objective.rank(objective.transmit(amplitudes, phases), levels)
    assert (objective.transmitted_rows, objective.received_rows) == (distinct, rows)
    expected = [serial(p, levels[p]) for p in range(rows)]
    assert np.array_equal(values, [e.fitness for e in expected])
    assert [record(p) for p in range(rows)] == expected

    words = min(words, rows)
    sent = objective.transmit(amplitudes[:, None], phases[:, None])
    values, record = objective.rank(sent, levels[:words])
    assert objective.transmitted_rows == 2 * distinct
    assert objective.received_rows == rows + distinct * words
    # flat candidate p is row p // words under word p % words
    expected = [serial(row, levels[word]) for row in range(rows) for word in range(words)]
    assert np.array_equal(values, [e.fitness for e in expected])
    assert [record(p) for p in range(rows * words)] == expected


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

    def test_batch_bound_names_particles(self, monkeypatch):
        # a batch may hold 32 of the longest periods; 10^9 particles used to
        # die allocating 305 GiB at the first draw. Nothing is drawn here.
        def no_draw(*args):
            raise AssertionError("pso_run drew before checking its batch")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        system = desk_setup().system
        assert system.n_env > system.n_dac
        particles = wptsim.optimizer._SWARM_BATCH_SAMPLES // system.n_env + 1
        with pytest.raises(ConfigurationError, match="swarm.particles"):
            pso_run(system, SwarmConfig(particles=particles))

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
