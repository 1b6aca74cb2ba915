"""What the benchmark harness under perfbench/ reads from wptsim.

The harness builds both profiles, reads chain.sim_sample_rate for its
computed sizes, checks every evaluation against the root-solver oracle,
builds random candidates, and parses the simulate report. A change that
breaks any of these fails here instead of in a benchmark run.
"""

import numpy as np
import pytest
import yaml

from wptsim import build_setup, cli, evaluate_solution, load_config
from wptsim.rectenna import solve_rectifier_equation
from wptsim.signal_chain import PhaseWord, ToneSet

STAGES = ["dac", "digital", "hpa", "lpf", "mixer", "received"]


@pytest.mark.parametrize("profile", ["desk", "paper"])
def test_profiles_build_with_a_positive_simulation_rate(profile):
    setup = build_setup(load_config(profile=profile))
    rate = setup.system.chain.sim_sample_rate
    assert isinstance(rate, float) and rate > 0
    assert round(rate / setup.system.tone_spacing) > 0


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
