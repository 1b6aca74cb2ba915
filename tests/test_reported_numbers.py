"""The numbers the CLI reports, pinned as printed (9 significant digits).

A change that means to move any of them (a new model, a new sampling rate)
updates these pins on purpose and says why; a refactor leaves them alone.
"""

import numpy as np
import pytest

from wptsim.cli import cmd_optimize, cmd_simulate, emit_structured
from wptsim.config import build_setup, config_set, load_config

# The default waveform puts its samples t = 5, 15, ..., 75 exactly on the
# 3-bit DAC's half step, so these blocks also pin which of them the
# synthesis rounds up (README, "Default waveform").
SIMULATE_BLOCKS = {
    "desk": """harvest:
  v_out_dc: 0.940849371
  p_out_dc: 0.000553248462
  rhs_log: 39.425732
power:
  p_dac: 0.001455
  p_mix: 0.023
  p_lo: 0.005
  p_hpa: 6.22899387
  p_s: 1
  p_total: 7.25844887
  hpa_negative: false""",
    "paper": """harvest:
  v_out_dc: 0.925620734
  p_out_dc: 0.000535483589
  rhs_log: 38.8487067
power:
  p_dac: 0.001455
  p_mix: 0.023
  p_lo: 0.005
  p_hpa: 6.23282382
  p_s: 1
  p_total: 7.26227882
  hpa_negative: false""",
}


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
        "best_fitness: 2.26060351\n"
        "p_out_dc: 2.08695273e-05\n"
        "evaluations: 6030\n"
        "last_trace: 2.26060351"
    )
