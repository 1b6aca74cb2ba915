"""The numbers the CLI reports, pinned as printed (9 significant digits).

A change that means to move any of them (a new model, a new sampling rate)
updates these pins on purpose and says why; a refactor leaves them alone.
"""

import numpy as np
import pytest

from wptsim.cli import cmd_optimize, cmd_simulate, emit_structured
from wptsim.config import build_setup, config_set, load_config
from wptsim.signal_chain import synthesize_multitone

# The default waveform drives every tone at 0.95 of the DAC range, so that no
# DAC input sample sits on a rounding boundary (test below), and the envelope
# chain reads no passband rate, so desk and paper report the same numbers.
BLOCK = """harvest:
  v_out_dc: 0.89795155
  p_out_dc: 0.000503948117
  rhs_log: 37.7996121
power:
  p_dac: 0.001455
  p_mix: 0.023
  p_lo: 0.005
  p_hpa: 5.28080123
  p_s: 0.9025
  p_total: 6.21275623
  hpa_negative: false"""
SIMULATE_BLOCKS = {"desk": BLOCK, "paper": BLOCK}


@pytest.mark.parametrize("bits", range(1, 9))
def test_default_waveform_keeps_off_the_dac_rounding_boundary(bits):
    setup = build_setup(load_config(profile="desk", overrides={"chain": {"dac_bits": bits}}))
    chain = setup.system.chain
    digital = synthesize_multitone(setup.tones.amplitudes, setup.tones.phases, setup.system.n_dac)
    step = 2.0 * chain.dac_range / 2**bits
    codes = np.abs(np.concatenate([digital.real, digital.imag])) / step
    unclipped = codes < 2 ** (bits - 1)
    margin = np.abs(codes - np.floor(codes) - 0.5)[unclipped]
    assert margin.min() > 1e-3


@pytest.mark.parametrize("profile", ["desk", "paper"])
def test_default_simulate_harvest_and_power(profile):
    report, _ = cmd_simulate(build_setup(load_config(profile=profile)))
    blocks = {key: report[key] for key in ("harvest", "power")}
    assert emit_structured(blocks) == SIMULATE_BLOCKS[profile]


def test_desk_optimize_seed_seven():
    cfg = load_config(profile="desk")
    config_set(cfg, "swarm.seed", 7)
    report, _ = cmd_optimize(build_setup(cfg))
    pinned = {
        "best_fitness": report["best_fitness"],
        "p_out_dc": report["harvest"]["p_out_dc"],
        "evaluations": report["evaluations"],
        "last_trace": np.asarray(report["fitness_trace"])[-1],
    }
    assert emit_structured(pinned) == (
        "best_fitness: 2.32292118\n"
        "p_out_dc: 2.03667747e-05\n"
        "evaluations: 6030\n"
        "last_trace: 2.32292118"
    )
