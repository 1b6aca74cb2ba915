"""The objective's exact symmetries, checked on the whole chain of random systems.

The harvest reads only the received envelope's magnitude, and the consumption
does not read the phase word, so three maps of a candidate leave both
unchanged up to rounding:
- a common shift of every phase level, mod 2^B, which rotates the beam;
- a quarter turn of every tone phase, exact in the model's math because the
  quantizer is odd and the same on I and Q and the amplifier and receiver
  are blind to phase;
- a shift of the period by m DAC samples, which adds 2 pi k m / n_dac to tone
  k. The envelope holds n_env samples, so the shift moves it by m n_env / n_dac
  of them; only whole envelope shifts are a symmetry of the sampled model.
  A fractional one resamples the amplifier's knee, which at drives far past
  it moves p_hpa by up to 1.6e-5 relative on these systems.
A stage that breaks I/Q symmetry or shift-equivariance fails this test, a
DAC rounding that is not symmetric about zero among them. A band moved by a
whole bin does not: it multiplies the envelope by a tone, which no
magnitude reads.
"""

import math

import numpy as np

from wptsim import evaluate_batch
from wptsim.config import build_setup, load_config
from wptsim.signal_chain import synthesize_multitone

SPACING = 1.25e6
SYSTEMS = 250
RTOL = 1e-12
# a DAC input this close to a half step, in steps, may quantize the other way
# after the ulp-level change a map makes in the synthesis
HALF_STEP_MARGIN = 1e-9
# below it p_out_dc has no relative accuracy: the rectenna's log-mean loses it
P_OUT_FLOOR = 1e-12


def _random_system(rng):
    """A random system of up to 8 tones and 3 x 4 elements, whose DAC period
    shares a factor with its envelope period, so a whole envelope shift
    other than none exists. The amplifier's smoothness stays at its
    default: each new value builds a table of its own."""
    tone_count = int(rng.integers(1, 9))
    n_env = 48 * max(tone_count, 4)
    n_dac = int(rng.integers(2 * tone_count, 2 * tone_count + 120))
    while math.gcd(n_dac, n_env) == 1:
        n_dac = int(rng.integers(2 * tone_count, 2 * tone_count + 120))
    overrides = {
        "waveform": {"tone_count": tone_count, "tone_spacing": SPACING},
        "array": {"rows": int(rng.integers(1, 4)), "cols": int(rng.integers(1, 5))},
        "chain": {
            "dac_bits": int(rng.integers(1, 11)),
            "dac_range": float(rng.uniform(0.5, 2.0)),
            "dac_sample_rate": n_dac * SPACING,
            "hpa_gain": float(10 ** rng.uniform(0.0, 1.5)),
            "hpa_saturation": float(10 ** rng.uniform(0.0, 1.5)),
            "ps_bits": int(rng.integers(1, 5)),
            "ps_insertion_loss_db": float(rng.uniform(0.0, 3.0)),
        },
        "receiver": {
            "position": [rng.uniform(-1.0, 1.0), rng.uniform(0.5, 5.0), rng.uniform(-1.0, 1.0)]
        },
        "channel": {"boresight_exponent": float(rng.uniform(0.0, 4.0))},
    }
    return build_setup(load_config(overrides=overrides)).system


def _mapped(system, rng):
    """A random candidate and its three maps, as rows 0 to 3 of a batch."""
    tone_count, n_dac, bits = system.tone_count, system.n_dac, system.chain.ps_bits
    amplitudes = rng.uniform(0.0, 1.0, tone_count) * system.chain.dac_range
    amplitudes *= 10 ** rng.uniform(-1.0, 1.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, tone_count)
    levels = rng.integers(0, 2**bits, system.element_count)
    level_shift = int(rng.integers(1, 2**bits))
    whole = n_dac // math.gcd(n_dac, system.n_env)  # DAC samples a whole envelope shift
    m = whole * int(rng.integers(1, n_dac // whole))
    turned = [
        phases,
        phases + np.pi / 2,
        phases + 2.0 * np.pi * np.arange(tone_count) * m / n_dac,
    ]
    return (
        np.tile(amplitudes, (4, 1)),
        np.mod([phases, *turned], 2.0 * np.pi),
        np.stack([levels, (levels + level_shift) % 2**bits, levels, levels]),
    )


def _half_step_margin(system, amplitudes, phases) -> float:
    """The least distance, in DAC steps, of a DAC input part from a half step."""
    chain = system.chain
    step = 2.0 * chain.dac_range / 2.0**chain.dac_bits
    parts = synthesize_multitone(amplitudes, phases, system.n_dac).view(float)
    codes = np.abs(np.clip(parts, -chain.dac_range, chain.dac_range)) / step
    return float(np.abs(codes % 1.0 - 0.5).min())


def test_level_shift_quarter_turn_and_time_shift_keep_harvest_and_consumption():
    # 250 systems, each with one candidate and its three maps, in about 1 s on
    # a 2-vCPU host. A candidate with a DAC input near a half step, or a
    # harvest below the floor, is drawn again, with its system
    rng = np.random.default_rng(21)
    worst = np.zeros((3, 2))
    for _ in range(SYSTEMS):
        while True:
            system = _random_system(rng)
            amplitudes, phases, levels = _mapped(system, rng)
            if _half_step_margin(system, amplitudes, phases) < HALF_STEP_MARGIN:
                continue
            harvest, power = evaluate_batch(amplitudes, phases, levels, system)
            if harvest.p_out_dc[0] >= P_OUT_FLOOR:
                break
        for values, column in ((harvest.p_out_dc, 0), (power.p_total, 1)):
            moved = np.abs(values[1:] / values[0] - 1.0)
            worst[:, column] = np.maximum(worst[:, column], moved)
    # rows: level shift, quarter turn, time shift; columns: p_out_dc, P_c
    assert (worst <= RTOL).all(), worst
