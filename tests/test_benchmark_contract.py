"""What the benchmark harness under perfbench/ reads from wptsim.

The harness builds each workload's config (perfbench/setup_probe.CONFIGS),
reads chain.sim_sample_rate for its computed sizes, checks every evaluation
against the root-solver oracle, builds random candidates, times pso_run's
iterations through its callback and checks the run's record, checks
brute_force_grid's count and best, and parses the simulate report. A change
that breaks any of these fails here instead of in a benchmark run.
"""

import dataclasses
import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

import wptsim.simulation
from wptsim import (
    brute_force_grid,
    build_setup,
    cli,
    evaluate_batch,
    evaluate_candidate,
    evaluate_solution,
    load_config,
    pso_run,
)
from wptsim.optimizer import GRID_CHUNK_SAMPLES
from wptsim.rectenna import solve_rectifier_equation
from wptsim.signal_chain import PhaseWord, ToneSet

STAGES = ["dac", "digital", "hpa", "lpf", "mixer", "received"]

# The names the harness's traced mode wraps in wptsim.simulation that an
# evaluation still calls. It times each by replacing the module global, so a
# refactor that renamed one, or called it other than through that global,
# would blank its per-layer metric without failing a run.
TRACED = [
    "synthesize_multitone",
    "quantize_dac",
    "harvest_from_signal",
    "total_power",
    "run_chain",
    "evaluate_solution",
]

# The stage kernels the harness is to time next, also replaced as module
# globals of wptsim.simulation. A batch runs each once for all its rows.
KERNELS = ["complex_envelope", "amplify_envelope", "beamformed_received"]


def _perfbench_module(name: str):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("profile", ["desk", "paper"])
def test_profiles_build_with_a_positive_simulation_rate(profile):
    # every workload's set-up, toy-grid's overrides included, grouped by profile
    configs = _perfbench_module("setup_probe").CONFIGS
    assert {name for name, _ in configs.values()} == {"desk", "paper"}
    for name, overrides in configs.values():
        if name != profile:
            continue
        setup = build_setup(load_config(profile=name, overrides=overrides))
        rate = setup.system.chain.sim_sample_rate
        assert isinstance(rate, float) and rate > 0
        assert round(rate / setup.system.tone_spacing) > 0


def test_computed_sizes_build_for_every_workload(monkeypatch):
    # the worker calls computed_sizes at the end of every run, traced or not;
    # it imports its sibling modules from perfbench/ as top-level names
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = _perfbench_module("workloads")
    names = sorted(workloads.WORKLOADS)
    assert names == ["desk-optimize", "paper-evaluate", "paper-simulate", "toy-grid"]
    for name in names:
        sizes = workloads.computed_sizes(name)
        samples = sizes["passband_samples"]
        assert isinstance(samples, int) and samples > 0
        elements = workloads.make_setup(name).system.element_count
        assert sizes["phase_shifters_bytes"] == elements * samples * 8


def test_candidates_and_the_root_solver_oracle():
    setup = build_setup(load_config(profile="paper"))
    system = setup.system
    rng = np.random.default_rng(1)
    tones = ToneSet(
        amplitudes=rng.uniform(0.0, setup.swarm.amplitude_max, system.tone_count),
        phases=rng.uniform(0.0, 2.0 * np.pi, system.tone_count),
        tone_spacing=system.tone_spacing,
    )
    word = PhaseWord(levels=rng.integers(0, 2**system.chain.ps_bits, system.element_count),
                     bits=system.chain.ps_bits)
    harvest = evaluate_solution(tones, word, system).harvest
    oracle = solve_rectifier_equation(harvest.rhs_log, system.rectenna)
    assert abs(harvest.v_out_dc - oracle) <= 1e-9


def test_pso_run_record_holds_what_desk_optimize_checks():
    # the op times one iteration between consecutive callbacks and fails
    # unless the callback's best values are the trace after the initial swarm
    # and a rerun at the same seed repeats the trace
    setup = build_setup(load_config(profile="desk"))
    swarm = dataclasses.replace(setup.swarm, iterations=4, seed=1_100_000)
    runs = []
    for _ in range(2):
        seen = []
        result = pso_run(setup.system, swarm, callback=lambda i, _, best: seen.append((i, best)))
        trace = result.fitness_trace
        assert [i for i, _ in seen] == list(range(1, swarm.iterations + 1))
        assert [best for _, best in seen] == trace[1:].tolist()
        assert trace.size == swarm.iterations + 1 and np.all(np.diff(trace) <= 0)
        assert trace[-1] == result.best_fitness
        assert result.evaluations == swarm.particles * (swarm.iterations + 1)
        again = evaluate_candidate(result.tones, result.phase_word, setup.system, swarm)
        assert again.fitness == result.best_fitness
        runs.append(trace)
    assert np.array_equal(*runs)


def test_brute_force_grid_holds_what_toy_grid_checks(monkeypatch):
    # the op fails unless the grid counts the workload's evaluations and its
    # best re-simulates to best_fitness through the workload's own check
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = _perfbench_module("workloads")
    profile, overrides = _perfbench_module("setup_probe").CONFIGS["toy-grid"]
    setup = build_setup(load_config(profile=profile, overrides=overrides))
    result = brute_force_grid(
        workloads.GRID_AMPLITUDES, workloads.GRID_PHASES, setup.system, setup.swarm
    )
    assert result.evaluations == workloads.GRID_EVALUATIONS == 1344
    assert workloads.check_best(result, setup.system, setup.swarm) == []
    again = evaluate_candidate(result.tones, result.phase_word, setup.system, setup.swarm)
    assert again.fitness == result.best_fitness


def test_simulate_report_holds_the_six_stages(tmp_path):
    config, out = tmp_path / "candidate.yaml", tmp_path / "report.yaml"
    rng = np.random.default_rng(2)
    config.write_text(yaml.safe_dump({"waveform": {
        "amplitudes": rng.uniform(0.0, 300.0, 8).tolist(),
        "phases": rng.uniform(0.0, 2.0 * np.pi, 8).tolist(),
        "phase_word": rng.integers(0, 8, 25).tolist(),
    }}))
    argv = ["simulate", "--profile", "paper", "--config", str(config), "--out", str(out),
            "--format", "structured"]
    assert cli.main(argv) == 0
    report = yaml.load(out.read_text(encoding="utf-8"), Loader=yaml.CSafeLoader)
    assert sorted(report["stages"]) == STAGES
    setup = build_setup(load_config(str(config), "paper"))
    expected = evaluate_solution(setup.tones, setup.phase_word, setup.system).harvest.p_out_dc
    assert f"{report['harvest']['p_out_dc']:.9g}" == f"{expected:.9g}"


def _traced_simulation_names() -> set:
    tracing = _perfbench_module("tracing")
    return {name for module, name, *_ in tracing.SPAN_TARGETS if module == "wptsim.simulation"}


def _count_calls(monkeypatch, names) -> Counter:
    """Replace each named global of wptsim.simulation by a wrapper that
    counts its calls in the returned Counter."""
    calls = Counter()
    for name in names:
        original = getattr(wptsim.simulation, name)

        def counting(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(wptsim.simulation, name, counting)
    return calls


def test_traced_names_are_called_through_the_simulation_module(monkeypatch):
    assert set(TRACED) <= _traced_simulation_names()
    calls = _count_calls(monkeypatch, TRACED)
    setup = build_setup(load_config(profile="desk"))
    system = setup.system
    wptsim.simulation.evaluate_solution(setup.tones, setup.phase_word, system)
    assert calls == Counter(TRACED)
    # a batch runs the same stage kernels, once for all its rows
    calls.clear()
    amplitudes = np.stack([setup.tones.amplitudes] * 3)
    phases = np.stack([setup.tones.phases] * 3)
    evaluate_batch(amplitudes, phases, np.stack([setup.phase_word.levels] * 3), system)
    assert calls == Counter(TRACED[:4])


def test_kernels_run_once_per_batch_through_the_simulation_module(monkeypatch):
    calls = _count_calls(monkeypatch, KERNELS)
    setup = build_setup(load_config(profile="desk"))
    rows = 3
    evaluate_batch(
        np.stack([setup.tones.amplitudes] * rows),
        np.stack([setup.tones.phases] * rows),
        np.stack([setup.phase_word.levels] * rows),
        setup.system,
    )
    assert calls == Counter(KERNELS)


def test_a_grid_and_a_swarm_run_the_transmit_once_per_chunk_or_batch(monkeypatch):
    # the grid's rank finds the DAC outputs its table does not hold
    # between quantize_dac and the envelope, and a swarm's batch is one step
    # that runs every stage on every row, so every stage the harness times
    # runs inside the calls it replaces: synthesis and the DAC once per grid
    # chunk (the toy's 336 tone points make two), the envelope, the amplifier
    # and the receive only in the first, whose DAC outputs are all the
    # second's too, received in one block; and each stage once per swarm
    # batch, which amplifies every row
    names = ["synthesize_multitone", "quantize_dac", *KERNELS]
    calls = _count_calls(monkeypatch, names)
    profile, overrides = _perfbench_module("setup_probe").CONFIGS["toy-grid"]
    toy = build_setup(load_config(profile=profile, overrides=overrides))
    brute_force_grid(21, 16, toy.system, toy.swarm)
    chunks = math.ceil(21 * 16 / (GRID_CHUNK_SAMPLES // toy.system.n_dac))
    assert chunks == 2
    assert calls == Counter({**dict.fromkeys(names, 1), **dict.fromkeys(names[:2], chunks)})
    calls.clear()
    amplified = []
    counted = wptsim.simulation.amplify_envelope

    def amplifying(envelope, *args):
        amplified.append(envelope.shape[:-1])
        return counted(envelope, *args)

    monkeypatch.setattr(wptsim.simulation, "amplify_envelope", amplifying)
    desk = build_setup(load_config(profile="desk"))
    pso_run(desk.system, dataclasses.replace(desk.swarm, iterations=3))
    assert calls == Counter(dict.fromkeys(names, 4))
    assert amplified == [(desk.swarm.particles,)] * 4
