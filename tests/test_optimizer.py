
import dataclasses
import functools
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

# K = 1 tone and N = 1 element of 3 bits: a particle of 3 entries
_ONE_ELEMENT = desk_setup(waveform={"tone_count": 1}, array={"rows": 1, "cols": 1}).system


class TestDecodeParticle:
    def test_zero_maps_to_level_zero(self):
        z = np.array([1.0, 0.0, 0.0])
        _, word = decode_particle(z, _ONE_ELEMENT)
        assert word.levels[0] == 0

    def test_unit_maps_to_top_level(self):
        z = np.array([1.0, 0.0, 1.0])
        _, word = decode_particle(z, _ONE_ELEMENT)
        assert word.levels[0] == 7

    def test_half_maps_to_three(self):
        z = np.array([1.0, 0.0, 0.5])
        _, word = decode_particle(z, _ONE_ELEMENT)
        assert word.levels[0] == 3

    def test_beam_entries_past_the_range_clip_to_the_end_levels(self):
        # a finite beam entry past 2^63 / (2^B - 1) used to wrap in the
        # integer cast, with a numpy warning, and decode as level 0
        for beam, level in ((1e308, 7), (1.5, 7), (-1e308, 0), (-0.5, 0)):
            _, word = decode_particle(np.array([1.0, 0.0, beam]), _ONE_ELEMENT)
            assert word.levels.tolist() == [level]

    def test_levels_always_in_range(self, rng):
        system = desk_setup(waveform={"tone_count": 4}, array={"rows": 3, "cols": 3}).system
        for _ in range(50):
            z = np.concatenate([rng.random(4) * 300, rng.random(4) * 2 * np.pi, rng.random(9)])
            _, word = decode_particle(z, system)
            assert np.all((word.levels >= 0) & (word.levels <= 7))

    def test_phase_upper_bound_wraps(self):
        z = np.array([1.0, 2.0 * np.pi, 0.0])
        tones, _ = decode_particle(z, _ONE_ELEMENT)
        assert tones.phases[0] == 0.0

    def test_position_must_be_the_systems_search_vector(self):
        # any length above 2K used to pass, the levels read from what was left
        for size in (2, 4, 9):
            with pytest.raises(ConfigurationError, match=r"^position must be the 3 entries"):
                decode_particle(np.zeros(size), _ONE_ELEMENT)
        with pytest.raises(ConfigurationError, match=r"^position must be the 3 entries"):
            decode_particle(np.zeros((1, 3)), _ONE_ELEMENT)

    def test_bounds_shape(self):
        setup = desk_setup()
        lower, upper = particle_bounds(setup.system, setup.swarm)
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
        value = evaluate_candidate(*decode_particle(z, setup.system), setup.system, setup.swarm)
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
            evaluate_candidate(*decode_particle(z, system), system, swarm).fitness
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
        lower, upper = particle_bounds(setup.system, setup.swarm)
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
    lower, upper = particle_bounds(system, swarm)
    n_var = lower.size
    span = upper - lower
    v_max = VELOCITY_CLAMP * span
    # one generator, drawn particle by particle: the initial position, then
    # each iteration's r_cog and r_soc
    rng = np.random.default_rng(swarm.seed)

    def evaluate(position):
        tones, word = decode_particle(position, system)
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

    tones, word = decode_particle(g_position, system)
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
    """Record how many candidates each ranking of the optimizer's objective
    counts, a swarm's or a grid's, check that it ranks one value a row, and
    fail on any single-candidate evaluate_solution call."""
    sizes = []
    ranked = wptsim.optimizer._Objective._ranked

    def counting(self, p_out_dc, power, candidates=1):
        values, record = ranked(self, p_out_dc, power, candidates)
        assert values.shape == p_out_dc.shape == (len(p_out_dc),)
        sizes.append(values.size * candidates)
        return values, record

    def serial(*args):
        raise AssertionError("the optimizer evaluated one candidate at a time")

    monkeypatch.setattr(wptsim.optimizer._Objective, "_ranked", counting)
    monkeypatch.setattr(wptsim.optimizer, "evaluate_solution", serial)
    return sizes


def _keep_objectives(monkeypatch) -> list:
    """Record every _Objective the optimizer builds."""
    objectives = []
    objective_init = wptsim.optimizer._Objective.__init__

    def keeping_init(self, *args):
        objective_init(self, *args)
        objectives.append(self)

    monkeypatch.setattr(wptsim.optimizer._Objective, "__init__", keeping_init)
    return objectives


def _enumerated(system: SystemModel, swarm: SwarmConfig, amplitude_points, phase_points):
    """The serial fitness of every candidate of a grid, in the grid's
    enumeration order, and the candidates."""
    bits, tone_count = system.chain.ps_bits, system.tone_count
    amplitude_axis = np.linspace(0.0, swarm.amplitude_max, amplitude_points)
    phase_axis = np.linspace(0.0, 2 * np.pi, phase_points, endpoint=False)
    values, candidates = [], []
    for amplitudes in itertools.product(amplitude_axis, repeat=tone_count):
        for phases in itertools.product(phase_axis, repeat=tone_count):
            for levels in itertools.product(range(2**bits), repeat=system.element_count):
                tones, word = ToneSet(amplitudes, phases, SPACING), PhaseWord(levels, bits)
                values.append(evaluate_candidate(tones, word, system, swarm).fitness)
                candidates.append((tones, word))
    return values, candidates


def _assert_first_minimum(result: OptimizationResult, values, candidates) -> None:
    best = int(np.argmin(values))
    tones, word = candidates[best]
    assert result.best_fitness == values[best]
    assert np.array_equal(result.tones.amplitudes, tones.amplitudes)
    assert np.array_equal(result.tones.phases, tones.phases)
    assert np.array_equal(result.phase_word.levels, word.levels)


def _serial_best_words(system: SystemModel, swarm: SwarmConfig, amplitudes, phases) -> list:
    """Each tone row's first least evaluate_candidate over every word, in the
    grid's word order (the last element fastest), and that word's flat index."""
    bits = system.chain.ps_bits
    words = list(itertools.product(range(2**bits), repeat=system.element_count))
    best = []
    for row_amplitudes, row_phases in zip(amplitudes, phases):
        tones = ToneSet(row_amplitudes, row_phases, system.tone_spacing)
        evals = [evaluate_candidate(tones, PhaseWord(w, bits), system, swarm) for w in words]
        word = int(np.argmin([e.fitness for e in evals]))
        best.append((evals[word], word))
    return best


def _assert_ranked_as_serial(ranked, system, swarm, amplitudes, phases) -> None:
    """A grid objective's rank of tone rows is each row's serial first least
    candidate over every word: value, record and word, bit for bit."""
    values, record, words = ranked
    expected = _serial_best_words(system, swarm, amplitudes, phases)
    assert values.shape == words.shape == (len(amplitudes),)
    assert np.array_equal(values, [e.fitness for e, _ in expected])
    assert [record(p) for p in range(len(values))] == [e for e, _ in expected]
    assert words.tolist() == [w for _, w in expected]


def _distinct_dac_outputs(system: SystemModel, swarm: SwarmConfig, amplitude_points, phase_points):
    """How many distinct DAC outputs a grid's tone points quantize to."""
    tone_count = system.tone_count
    amplitudes = np.linspace(0.0, swarm.amplitude_max, amplitude_points)
    phases = np.linspace(0.0, 2 * np.pi, phase_points, endpoint=False)
    # every tone point, its amplitudes then its phases, in enumeration order
    points = np.array(list(itertools.product(*[amplitudes] * tone_count, *[phases] * tone_count)))
    digital = synthesize_multitone(points[:, :tone_count], points[:, tone_count:], system.n_dac)
    dac = quantize_dac(digital, system.chain.dac_bits, system.chain.dac_range)
    return len({row.tobytes() for row in dac})


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
        # each distinct DAC output that the grid has not ranked yet once,
        # receives each such emission under every word and ranks one value a
        # tone point, which counts its every word; no chunk holds more than
        # GRID_CHUNK_SAMPLES DAC samples or received envelope samples in one
        # array
        ranked = _count_batches(monkeypatch)
        objectives, quantized, received = _keep_objectives(monkeypatch), [], []
        quantize, receive = wptsim.simulation.quantize_dac, wptsim.optimizer._receive

        def counting_quantize(*args):
            samples = quantize(*args)
            quantized.append(samples.shape)
            return samples

        def counting_receive(*args):
            periods = receive(*args)
            received.append(periods.shape)
            return periods

        monkeypatch.setattr(wptsim.simulation, "quantize_dac", counting_quantize)
        monkeypatch.setattr(wptsim.optimizer, "_receive", counting_receive)
        setup = toy_setup()
        n_dac, m = setup.system.n_dac, setup.system.n_env
        result = brute_force_grid(11, 23, setup.system, setup.swarm)
        (objective,) = objectives
        assert result.evaluations == objective.evaluations == sum(ranked) == 1012
        # 204 tone points of 80 DAC samples fill a chunk: 253 = 204 + 49 tone
        # points, whose 300 V grid aliases to 6 and 5 distinct DAC outputs;
        # the second chunk's 5 are among the first's 6, so only the first
        # chunk transmits and receives. Each chunk ranks one value a tone
        # point (_count_batches checks the shape) and counts its 4 words
        points = GRID_CHUNK_SAMPLES // n_dac
        assert points == 204
        assert quantized == [(204, n_dac), (49, n_dac)]
        assert ranked == [204 * 4, 49 * 4]
        assert received == [(6, 4, m)]
        assert objective.transmitted_rows == 6
        assert objective.received_rows == sum(math.prod(shape[:-1]) for shape in received) == 24
        assert max(math.prod(shape) for shape in quantized) <= GRID_CHUNK_SAMPLES
        assert max(math.prod(shape) for shape in received) <= GRID_CHUNK_SAMPLES

        # 128 words x 192 samples exceed a receive: the 6 tone points are one
        # chunk, ranked as 6 values that count 128 words each, and each of
        # their 3 distinct emissions is received under 85 and then 43 words
        objectives.clear(), quantized.clear(), received.clear(), ranked.clear()
        system = _seven_element_setup().system
        assert 128 * system.n_env > GRID_CHUNK_SAMPLES
        brute_force_grid(3, 2, system, setup.swarm)
        (objective,) = objectives
        words = GRID_CHUNK_SAMPLES // system.n_env
        assert words == 85
        assert quantized == [(6, system.n_dac)] and ranked == [6 * 128]
        assert received == [(1, words, system.n_env), (1, 128 - words, system.n_env)] * 3
        assert (objective.transmitted_rows, objective.received_rows) == (3, 3 * 128)
        assert max(math.prod(shape) for shape in received) <= GRID_CHUNK_SAMPLES

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
        values, candidates = _enumerated(system, swarm, 11, 23)
        if required == 0.0:
            assert int(np.argmin(values)) == 0 and values.count(values[0]) == 92
        for bound, chunk in ((GRID_CHUNK_SAMPLES, 816), (21 * 80, 84)):
            # the grid's chunk: whole tone points of 4 words each
            assert (bound // system.n_dac) * 4 == chunk and 1012 % chunk != 0
            assert (92 > chunk) == (bound < GRID_CHUNK_SAMPLES)
            monkeypatch.setattr(wptsim.optimizer, "GRID_CHUNK_SAMPLES", bound)
            _assert_first_minimum(brute_force_grid(11, 23, system, swarm), values, candidates)

    def test_grid_transmits_each_distinct_dac_output_once(self, monkeypatch):
        # at a bound of 21 x 80 the toy's 21 x 16 grid is 16 chunks of 21 tone
        # points. Its 300 V amplitudes alias to 9 distinct DAC outputs, which
        # the grid's table of 21 holds once ranked, so each is transmitted and
        # received under the 4 words once (a dedupe within each chunk made 124
        # transmits and 496 receives), and the grid still ranks as per-point
        # enumeration does
        setup = toy_setup()
        system, swarm = setup.system, setup.swarm
        objectives = _keep_objectives(monkeypatch)
        monkeypatch.setattr(wptsim.optimizer, "GRID_CHUNK_SAMPLES", 21 * 80)
        result = brute_force_grid(21, 16, system, swarm)
        _assert_first_minimum(result, *_enumerated(system, swarm, 21, 16))
        (objective,) = objectives
        assert _distinct_dac_outputs(system, swarm, 21, 16) == 9
        assert (objective.transmitted_rows, objective.received_rows) == (9, 9 * 4)

    def test_grid_of_distinct_dac_outputs_keeps_its_cost_and_memory(self, monkeypatch):
        # below the DAC's range the toy's 21 x 16 tone points quantize to 321
        # distinct outputs, one for the 16 zero-amplitude points and one for
        # each other point; no output recurs across its two chunks of 204 and
        # 132 points, so the table saves nothing and the grid transmits and
        # receives as often as a dedupe within each chunk did. No array the
        # grid ranks, receives or keeps in its table exceeds
        # GRID_CHUNK_SAMPLES elements; the table is a row of 4 a DAC output
        setup = toy_setup()
        system = setup.system
        swarm = dataclasses.replace(setup.swarm, amplitude_max=0.9)
        assert swarm.amplitude_max < system.chain.dac_range
        ranked = _count_batches(monkeypatch)
        objectives, received = _keep_objectives(monkeypatch), []
        receive = wptsim.optimizer._receive

        def counting_receive(*args):
            periods = receive(*args)
            received.append(periods.shape)
            return periods

        monkeypatch.setattr(wptsim.optimizer, "_receive", counting_receive)
        result = brute_force_grid(21, 16, system, swarm)
        (objective,) = objectives
        assert result.evaluations == sum(ranked) == 1344
        assert _distinct_dac_outputs(system, swarm, 21, 16) == 321
        assert (objective.transmitted_rows, objective.received_rows) == (321, 321 * 4)
        assert ranked == [204 * 4, 132 * 4]
        assert max(math.prod(shape) for shape in received) <= GRID_CHUNK_SAMPLES
        assert len(objective.slots) == 204
        assert len(objective.slots) * system.n_dac <= GRID_CHUNK_SAMPLES
        assert objective.table.shape == (204, 4)
        assert objective.table.size <= GRID_CHUNK_SAMPLES

    def test_four_element_two_bit_grid_transmits_its_nine_dac_outputs(self, monkeypatch):
        # K = 1, N = 4, B = 2: 21 x 16 tone points under 256 words, 86 016
        # candidates in chunks of 64 tone points. Its 9 distinct DAC outputs
        # are transmitted once each and received under every word once: 9 and
        # 2304, where a dedupe within each chunk made 49 and 12 544. The best
        # point is the one the dedupe within each chunk found, bit for bit
        setup = desk_setup(
            waveform={"tone_count": 1},
            array={"rows": 1, "cols": 4},
            chain={"ps_bits": 2, "dac_bits": 8},
        )
        objectives = _keep_objectives(monkeypatch)
        best = brute_force_grid(21, 16, setup.system, setup.swarm)
        (objective,) = objectives
        assert (objective.transmitted_rows, objective.received_rows) == (9, 2304)
        assert best.evaluations == 86016
        assert best.best_fitness == 270.20471680519984
        assert best.tones.amplitudes.tolist() == [15.0] and best.tones.phases.tolist() == [0.0]
        assert best.phase_word.levels.tolist() == [0, 0, 0, 0]


    @pytest.mark.parametrize("required", [20e-6, 0.0])
    def test_word_split_grid_matches_per_point_enumeration(self, monkeypatch, required):
        # 3 x 2 tone points x 128 words. At the default bound they are one
        # chunk, and each of the 3 distinct emissions is received under 85
        # and then 43 words; at a bound of 100 each tone point is a chunk of
        # its own, received one word at a time (a receive of 192 samples
        # exceeds 100), and the table holds one DAC output. The points'
        # outputs run 0, 0, 1, 2, 1, 2, so only the second point's is held:
        # 5 transmits, and 5 x 128 receives. With no harvest required every
        # word of a tone point ties, the zero-amplitude points first, across
        # the split and across tone points, and the first of them must win
        setup = _seven_element_setup()
        system = setup.system
        swarm = dataclasses.replace(setup.swarm, required_dc_power=required)
        values, candidates = _enumerated(system, swarm, 3, 2)
        if required == 0.0:
            assert int(np.argmin(values)) == 0 and values.count(values[0]) == 256
        objectives = _keep_objectives(monkeypatch)
        for bound, transmits, receives in ((GRID_CHUNK_SAMPLES, 3, 384), (100, 5, 640)):
            assert bound // system.n_env < 128
            monkeypatch.setattr(wptsim.optimizer, "GRID_CHUNK_SAMPLES", bound)
            _assert_first_minimum(brute_force_grid(3, 2, system, swarm), values, candidates)
            objective = objectives.pop()
            assert (objective.transmitted_rows, objective.received_rows) == (transmits, receives)


    @pytest.mark.parametrize(
        "name, amplitude_max, amplitude_points, phase_points",
        [("toy", 0.9, 7, 6), ("toy", 300.0, 7, 6), ("K2-N2-B1", 300.0, 4, 3)],
    )
    def test_grid_table_is_cut_back_to_its_size(
        self, monkeypatch, name, amplitude_max, amplitude_points, phase_points
    ):
        # at a bound of n_dac, 3 n_dac and 21 x 80 samples the table keeps 1,
        # 3 and 21 DAC outputs: each rank grows it by its new outputs, and the
        # outputs past its size leave it and their slots again, to be
        # transmitted again when they recur. After every rank the table holds
        # at most its size of rows and one slot a row, and the grid still
        # ranks as per-point enumeration does
        system = (_TOY if name == "toy" else _two_tone_setup()).system
        swarm = SwarmConfig(amplitude_max=amplitude_max)
        values, candidates = _enumerated(system, swarm, amplitude_points, phase_points)
        distinct = _distinct_dac_outputs(system, swarm, amplitude_points, phase_points)
        objectives, tables = _keep_objectives(monkeypatch), []
        rank = wptsim.optimizer._GridObjective.rank

        def checking_rank(self, *args):
            ranked = rank(self, *args)
            rows = len(self.table)
            assert rows == len(self.slots) <= self.size
            tables.append(rows)
            return ranked

        monkeypatch.setattr(wptsim.optimizer._GridObjective, "rank", checking_rank)
        for bound in (system.n_dac, 3 * system.n_dac, 21 * 80):
            monkeypatch.setattr(wptsim.optimizer, "GRID_CHUNK_SAMPLES", bound)
            result = brute_force_grid(amplitude_points, phase_points, system, swarm)
            _assert_first_minimum(result, values, candidates)
            objective = objectives.pop()
            assert objective.size == bound // system.n_dac
            assert max(tables) == min(objective.size, distinct)
            assert objective.transmitted_rows >= distinct
            tables.clear()


def _two_tone_setup():
    """K = 2 tones, N = 2 elements of 1 bit, the desk DAC of 3 bits."""
    return desk_setup(
        waveform={"tone_count": 2}, array={"rows": 1, "cols": 2}, chain={"ps_bits": 1}
    )


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
    # the grid quantizes a chunk of tone points at once, receives each DAC
    # output it has not ranked yet under every word, in blocks, and ranks
    # each tone point under its output's best word, reading what it received
    # in this chunk or an earlier one. Each (DAC output, word) harvest that a
    # block receive forms must equal evaluate_batch on a tone point of that
    # output under that word, and each tone point's ranked harvest and
    # consumption evaluate_batch on that point under its best word, to the
    # bit, whichever rows' DAC outputs were deduplicated
    system = _GRID_SYSTEMS[name]
    tone_count, bits = system.tone_count, system.chain.ps_bits
    if tone_count == 2:
        amplitude_points, phase_points = min(amplitude_points, 2), min(phase_points, 2)
    swarm = SwarmConfig(amplitude_max=amplitude_max)
    points, sent, blocks, ranks = {}, [], [], []
    steps = ("_sampled", "_emitted", "_receive", "_harvest")
    spied = {step: getattr(wptsim.optimizer, step) for step in steps}
    rank = wptsim.optimizer._GridObjective.rank

    def spy_sampled(amplitudes, phases, system):
        digital, dac = spied["_sampled"](amplitudes, phases, system)
        for point in zip(amplitudes, phases, dac):
            points.setdefault(point[2].tobytes(), point[:2])  # each output's first tone point
        return digital, dac

    def spy_emitted(rows, system):
        sent.extend(row.tobytes() for row in rows)
        return spied["_emitted"](rows, system)

    def spy_receive(emission, levels, system):
        blocks.append({"emissions": len(emission), "levels": levels})
        return spied["_receive"](emission, levels, system)

    def spy_harvest(received, system):
        result = spied["_harvest"](received, system)
        blocks[-1]["p_out_dc"] = result.p_out_dc
        return result

    def spy_rank(self, amplitudes, phases):
        ranks.append((amplitudes, phases, rank(self, amplitudes, phases)))
        return ranks[-1][-1]

    with pytest.MonkeyPatch.context() as patch:
        for step, spy in zip(steps, (spy_sampled, spy_emitted, spy_receive, spy_harvest)):
            patch.setattr(wptsim.optimizer, step, spy)
        patch.setattr(wptsim.optimizer._GridObjective, "rank", spy_rank)
        brute_force_grid(amplitude_points, phase_points, system, swarm)

    words = 2 ** (bits * system.element_count)
    levels = np.stack(np.unravel_index(np.arange(words), (2**bits,) * system.element_count), -1)
    assert sum(len(amplitudes) for amplitudes, *_ in ranks) == (
        (amplitude_points * phase_points) ** tone_count
    )
    # the blocks run emissions outer and words inner, so a block that starts
    # at the first word starts the next transmitted outputs' emissions
    received = [{"levels": [], "p_out_dc": []} for _ in sent]
    first = 0
    for block in blocks:
        if not block["levels"][0].any():
            first, start = first + block["emissions"], first
        for e, p_out_dc in enumerate(block["p_out_dc"]):
            received[start + e]["levels"].append(block["levels"])
            received[start + e]["p_out_dc"].append(p_out_dc)
    assert first == len(sent)
    for output in received:
        assert np.array_equal(np.concatenate(output["levels"]), levels)
    tone_points = [points[key] for key in sent]
    batch_harvest, _ = evaluate_batch(
        np.repeat([a for a, _ in tone_points], words, axis=0),
        np.repeat([p for _, p in tone_points], words, axis=0),
        np.tile(levels, (len(sent), 1)),
        system,
    )
    grid = np.array([np.concatenate(output["p_out_dc"]) for output in received])
    assert grid.shape == (len(sent), words)
    assert np.array_equal(grid, batch_harvest.p_out_dc.reshape(grid.shape))

    for amplitudes, phases, (values, record, best) in ranks:
        batch_harvest, batch_power = evaluate_batch(amplitudes, phases, levels[best], system)
        records = [record(p) for p in range(len(values))]
        assert np.array_equal([r.p_out_dc for r in records], batch_harvest.p_out_dc)
        for field, column in vars(batch_power).items():
            assert np.array_equal([getattr(r.power, field) for r in records], column), field


@functools.cache
def _small_system(tone_count, elements, ps_bits, dac_bits) -> SystemModel:
    return desk_setup(
        waveform={"tone_count": tone_count},
        array={"rows": 1, "cols": elements},
        chain={"ps_bits": ps_bits, "dac_bits": dac_bits},
    ).system


@settings(max_examples=60, deadline=None)
@given(
    tone_count=st.sampled_from([1, 2]),
    elements=st.integers(1, 3),
    ps_bits=st.integers(1, 2),
    dac_bits=st.sampled_from([3, 8]),
    amplitude_max=st.sampled_from([0.9, 30.0, 300.0]),
    required=st.sampled_from([0.0, 20e-6, 1.0]),
    data=st.data(),
)
def test_grid_answer_is_the_first_minimum_of_every_candidate(
    tone_count, elements, ps_bits, dac_bits, amplitude_max, required, data
):
    # the grid ranks each tone point under its DAC output's best word: the
    # first feasible word, else the first of least penalised shortfall,
    # whichever point sent the output. Its answer must be the first minimum
    # of every (tone point, word) candidate in enumeration order, record
    # included, bit for bit. With no harvest required every word is
    # feasible and ties; at 1 W none is, and the answer is decided among
    # infeasible words, zero-amplitude points tying exactly
    system = _small_system(tone_count, elements, ps_bits, dac_bits)
    # at most about 200 candidates: (amplitude x phase points)^K x words
    points = 200 // 2 ** (ps_bits * elements)
    side = math.isqrt(points) if tone_count == 2 else points
    amplitude_points = data.draw(st.integers(1, max(1, min(6, side))), "amplitude_points")
    phase_points = data.draw(
        st.integers(1, max(1, min(6, side // amplitude_points))), "phase_points"
    )
    swarm = SwarmConfig(amplitude_max=amplitude_max, required_dc_power=required)
    values, candidates = _enumerated(system, swarm, amplitude_points, phase_points)
    assert len(values) <= 200
    result = brute_force_grid(amplitude_points, phase_points, system, swarm)
    _assert_first_minimum(result, values, candidates)
    expected = evaluate_candidate(*candidates[int(np.argmin(values))], system, swarm)
    assert result.p_out_dc == expected.p_out_dc and result.power == expected.power
    assert result.feasible == expected.feasible
    assert result.evaluations == len(values)


_RANK_SYSTEMS = {"desk": desk_setup().system, "toy": _TOY.system}
# a grid ranks every word, so each system's grid rows are drawn on one of few
# words: the toy's own, and desk's DAC at K = 2, N = 2, B = 1
_RANK_GRID_SYSTEMS = {"desk": _two_tone_setup().system, "toy": _TOY.system}


def _decoded_rows(system: SystemModel, swarm: SwarmConfig, particles, rng):
    """Random decoded candidates, amplitudes spanning four decades so that
    some rows are feasible and some not."""
    lower, upper = particle_bounds(system, swarm)
    positions = lower + rng.random((particles, lower.size)) * (upper - lower)
    positions[:, : system.tone_count] *= 10.0 ** -rng.uniform(0.0, 4.0, (particles, 1))
    return wptsim.optimizer._decode_swarm(positions, system)


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(_RANK_SYSTEMS)),
    particles=st.integers(1, 6),
    required=st.sampled_from([0.0, 20e-6, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranked_rows_equal_the_serial_fitness(name, particles, required, seed):
    # the objective ranks decoded candidates as a swarm does, row p under
    # word p, and as a grid does, each tone row under its first least word
    # of all; every row must equal evaluate_candidate on its candidate, or
    # on its first least candidate over every word, record and word
    # included, and be counted, a grid's row once a word. Building each
    # row's ToneSet and PhaseWord checks that the decode made it valid
    system = _RANK_SYSTEMS[name]
    bits = system.chain.ps_bits
    swarm = SwarmConfig(required_dc_power=required)
    rng = np.random.default_rng(seed)
    amplitudes, phases, levels = _decoded_rows(system, swarm, particles, rng)

    def serial(point, word):
        tones = ToneSet(amplitudes[point], phases[point], system.tone_spacing)
        return evaluate_candidate(tones, PhaseWord(levels[word], bits), system, swarm)

    objective = wptsim.optimizer._Objective(system, swarm)
    values, record = objective.rank(amplitudes, phases, levels)
    assert values.shape == (particles,) and objective.evaluations == particles
    for p in range(particles):
        expected = serial(p, p)
        assert values[p] == expected.fitness and record(p) == expected

    system = _RANK_GRID_SYSTEMS[name]
    amplitudes, phases, _ = _decoded_rows(system, swarm, particles, rng)
    grid = wptsim.optimizer._GridObjective(system, swarm, 0)
    ranked = grid.rank(amplitudes, phases)
    assert grid.evaluations == particles * 2 ** (system.chain.ps_bits * system.element_count)
    _assert_ranked_as_serial(ranked, system, swarm, amplitudes, phases)


def _aliased_rows(system: SystemModel, tone_sets, rows, rng):
    """Rows drawn with repeats, in any order, from tone sets and their DAC
    aliases, with random words: the tone rows, their words and their DAC
    outputs."""
    tone_count = system.tone_count
    scales = rng.choice([1e-4, 1.0, 150.0], (tone_sets, 1))
    base = rng.uniform(0.5, 1.0, (tone_sets, tone_count)) * scales
    pick = rng.integers(0, 2 * tone_sets, rows)
    amplitudes = np.concatenate([base, 2.0 * base])[pick]
    phases = np.tile(rng.uniform(0.0, 2.0 * np.pi, (tone_sets, tone_count)), (2, 1))[pick]
    levels = rng.integers(0, 2**system.chain.ps_bits, (rows, system.element_count))
    dac = quantize_dac(
        synthesize_multitone(amplitudes, phases, system.n_dac),
        system.chain.dac_bits,
        system.chain.dac_range,
    )
    return amplitudes, phases, levels, dac


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(_RANK_SYSTEMS)),
    tone_sets=st.integers(1, 4),
    rows=st.integers(1, 12),
    required=st.sampled_from([0.0, 20e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_repeated_and_aliased_rows_equal_the_serial_evaluation(
    name, tone_sets, rows, required, seed
):
    # rows drawn with repeats, in any order, from tone sets and their DAC
    # aliases: the same phases at twice the amplitudes, which the DAC maps to
    # the same output below half a step (and mostly past its range) while
    # their consumption differs. A swarm's batch is one step on every row
    # and the grid transmits once per distinct DAC output, yet every row of
    # evaluate_batch and of the objective's rank, in both shapes, must equal
    # the serial evaluation of its own candidate, a grid's row its first
    # least candidate over every word
    system = _RANK_SYSTEMS[name]
    bits = system.chain.ps_bits
    swarm = SwarmConfig(required_dc_power=required)
    rng = np.random.default_rng(seed)
    amplitudes, phases, levels, _ = _aliased_rows(system, tone_sets, rows, rng)

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
    values, record = objective.rank(amplitudes, phases, levels)
    expected = [serial(p, levels[p]) for p in range(rows)]
    assert np.array_equal(values, [e.fitness for e in expected])
    assert [record(p) for p in range(rows)] == expected

    system = _RANK_GRID_SYSTEMS[name]
    words = 2 ** (system.chain.ps_bits * system.element_count)
    amplitudes, phases, _, dac = _aliased_rows(system, tone_sets, rows, rng)
    distinct = len({row.tobytes() for row in dac})
    grid = wptsim.optimizer._GridObjective(system, swarm, 0)
    _assert_ranked_as_serial(grid.rank(amplitudes, phases), system, swarm, amplitudes, phases)
    assert (grid.transmitted_rows, grid.received_rows) == (distinct, distinct * words)

    # a grid's objective keeps a table of the DAC outputs it has ranked: with
    # room for them all, the rows ranked again in reverse order transmit and
    # receive nothing; with room for one, the others run again. Each row
    # still equals its serial first least candidate
    for size, transmits in ((rows, distinct), (1, 2 * distinct - 1)):
        grid = wptsim.optimizer._GridObjective(system, swarm, size)
        for order in (slice(None), slice(None, None, -1)):
            ranked = grid.rank(amplitudes[order], phases[order])
            _assert_ranked_as_serial(ranked, system, swarm, amplitudes[order], phases[order])
        assert (grid.transmitted_rows, grid.received_rows) == (transmits, transmits * words)


def test_grid_table_keeps_signed_zero_outputs_apart():
    # the grid's table groups DAC outputs by their exact bytes. A toy tone far
    # below half a DAC step quantizes to zeros signed as its samples: at phase
    # 0 and at pi the outputs are equal as numbers but differ in each zero's
    # sign, so they take two slots; twice the amplitude at phase 0 is the
    # first output byte for byte and takes its slot. Each point still ranks
    # equal to its serial first least candidate over every word
    system = _TOY.system
    swarm = SwarmConfig(required_dc_power=0.0)
    amplitudes, phases = np.array([[1e-4], [1e-4], [2e-4]]), np.array([[0.0], [np.pi], [0.0]])
    dac = quantize_dac(
        synthesize_multitone(amplitudes, phases, system.n_dac),
        system.chain.dac_bits,
        system.chain.dac_range,
    )
    assert np.array_equal(dac[0], dac[1]) and dac[0].tobytes() != dac[1].tobytes()
    assert dac[0].tobytes() == dac[2].tobytes()
    grid = wptsim.optimizer._GridObjective(system, swarm, len(amplitudes))
    ranked = grid.rank(amplitudes, phases)
    assert [grid.slots[row.tobytes()] for row in dac] == [0, 1, 0]
    assert (grid.transmitted_rows, len(grid.slots)) == (2, 2)
    _assert_ranked_as_serial(ranked, system, swarm, amplitudes, phases)


def test_grid_slots_hold_the_rows_bytes_in_first_occurrence_order():
    # two chunks of toy tone points with repeats, within and across the
    # chunks: the table's slots are the rows' DAC bytes in the order they
    # first occur, numbered 0, 1, ... in that order. With room for only the
    # first chunk's outputs, the second chunk's new ones leave the table again
    system = _TOY.system
    swarm = SwarmConfig(required_dc_power=0.0)
    scale = system.chain.dac_range
    chunks = [np.array([0.6, 0.2, 0.6, 0.4, 0.2]), np.array([0.8, 0.4, 1.0, 0.8, 0.6])]
    rows = [
        quantize_dac(
            synthesize_multitone(scale * chunk[:, None], np.zeros((len(chunk), 1)), system.n_dac),
            system.chain.dac_bits,
            scale,
        )
        for chunk in chunks
    ]
    first = []
    for row in np.concatenate(rows):
        if row.tobytes() not in first:
            first.append(row.tobytes())
    assert len(first) == 5
    held = len({row.tobytes() for row in rows[0]})
    for size, slots in ((len(first), first), (held, first[:held])):
        grid = wptsim.optimizer._GridObjective(system, swarm, size)
        for chunk in chunks:
            grid.rank(scale * chunk[:, None], np.zeros((len(chunk), 1)))
        assert list(grid.slots) == slots
        assert list(grid.slots.values()) == list(range(len(slots)))
        assert grid.transmitted_rows == len(first)


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

    def test_velocity_update_that_overflows_is_refused(self):
        # a coefficient of 1.7e308 times the 300 V amplitude range overflowed
        # to inf velocities, and inf - inf to NaN, with a numpy warning
        system = toy_setup().system
        for coefficients in ({"social": 1.7e308}, {"cognitive": 1e306, "social": 1e306}):
            with pytest.raises(ConfigurationError, match="swarm.cognitive .* and swarm.social"):
                pso_run(system, SwarmConfig(particles=4, iterations=3, **coefficients))
        huge = SwarmConfig(particles=4, iterations=3, cognitive=1e300, social=1e300)
        assert len(pso_run(system, huge).fitness_trace) == 4

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
