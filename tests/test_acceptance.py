"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the slow swarm criteria sit at the end.
"""

import time

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from conftest import desk_setup, received_envelope, toy_setup
import reference
from reference import lambert_w0, passband_receive_band, rapp_amplifier, received_signal
from wptsim import (
    PhaseWord,
    RectennaParams,
    ReceiverPosition,
    ToneSet,
    brute_force_grid,
    element_positions,
    evaluate_candidate,
    evaluate_solution,
    particle_bounds,
    pso_run,
    run_chain,
)
from wptsim.channel import build_channel_matrix, radiation_profile
from wptsim.power_model import dac_power
from wptsim.rectenna import (
    dc_output_voltage,
    lambert_w0_log,
    rhs_log_mean,
    solve_rectifier_equation,
)
from wptsim.signal_chain import quantize_dac

SPACING = 1.25e6

TABLE_RECTENNA = RectennaParams(
    source_resistance=50.0,
    load_resistance=1600.0,
    saturation_current=5e-6,
    thermal_voltage=25.86e-3,
    ideality=1.05,
)


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d}: PASS - {text}")


def test_criterion_01_lambert_identity():
    start = time.perf_counter()
    xs = np.logspace(-6, 300, 1000)
    for x in xs:
        if x > 1e15:
            w = lambert_w0_log(np.log(x))
        else:
            w = lambert_w0(x)
        assert abs(w * np.exp(w) - x) <= 1e-12 * x
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(np.e) - 1.0) <= 1e-14
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"Lambert W identity over [1e-6, 1e300] in {elapsed:.2f} s")


def test_criterion_02_closed_form_vs_implicit():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for rhs_log in rng.uniform(0.0, 1e3, 1000):
        closed = dc_output_voltage(rhs_log, TABLE_RECTENNA)
        oracle = solve_rectifier_equation(rhs_log, TABLE_RECTENNA)
        worst = max(worst, abs(closed - oracle))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"closed form vs root solver, worst gap {worst:.2e} V in {elapsed:.2f} s")


def test_criterion_03_bessel_cross_check():
    start = time.perf_counter()
    n = 4096
    phase = 2.0 * np.pi * np.arange(n) / n
    for amplitude in np.linspace(1e-3, 1.0, 20):
        signal = amplitude * np.cos(phase)
        z = np.sqrt(50.0) * amplitude / (1.05 * 25.86e-3)
        expected = z + np.log(scipy.special.ive(0, z))
        assert_allclose(reference.rhs_log_mean(signal, TABLE_RECTENNA), expected, rtol=1e-6)
        # the library takes the carrier-cycle mean as I0 of the envelope
        envelope = np.full(16, amplitude * np.exp(1j * amplitude))
        assert_allclose(rhs_log_mean(envelope, TABLE_RECTENNA), expected, rtol=1e-13)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"sinusoid mean-exponential matches Bessel I0 for 20 amplitudes in {elapsed:.2f} s")


def test_criterion_04_dac_power_points(power_params):
    assert_allclose(dac_power(3, 100e6, power_params), 1.455e-3, rtol=1e-15)
    assert_allclose(dac_power(1, 100e6, power_params), 465e-6, rtol=1e-15)
    values = [dac_power(b, 100e6, power_params) for b in range(1, 13)]
    assert all(b > a for a, b in zip(values, values[1:]))
    _report(4, "DAC power hits 1.455 mW / 465 uW exactly and is monotone over 1..12 bits")


def test_criterion_05_rapp_model():
    gain, saturation, smoothness = 10.0, 10.0, 4.0
    rng = np.random.default_rng(5)
    n = 4096
    values = np.concatenate([rng.uniform(-1e3, 1e3, n - 2), [0.0, 1e3]])
    out = rapp_amplifier(values, gain, saturation, smoothness)
    out_neg = rapp_amplifier(-values, gain, saturation, smoothness)
    assert np.array_equal(out_neg, -out)  # oddness, exact
    assert np.all(np.abs(out) < saturation)
    small = np.linspace(-1e-3, 1e-3, n)  # |x| <= 1e-3 * A_s / G
    small_out = rapp_amplifier(small, gain, saturation, smoothness)
    nonzero = small != 0.0
    deviation = np.abs(small_out[nonzero] / (gain * small[nonzero]) - 1.0)
    assert np.all(deviation < 1e-6)
    _report(5, "Rapp amplifier odd, strictly bounded, linear to 1e-6 in the small-signal regime")


def test_criterion_06_quantizer():
    rng = np.random.default_rng(6)
    n = 100_000
    for bits in range(1, 11):
        for full_scale in (0.5, 1.0, 2.0):
            step = 2.0 * full_scale / 2**bits
            values = rng.uniform(-2 * full_scale, 2 * full_scale, n)
            out = quantize_dac(values, bits, full_scale)
            clamped = np.clip(values, -full_scale, full_scale)
            assert np.all(np.abs(out - clamped) <= step / 2 + 1e-12)
            assert np.all(np.abs(out) <= full_scale)
            codes = out / step
            assert np.max(np.abs(codes - np.round(codes))) <= 1e-9
    _report(6, "quantizer error bound and output grid hold for 30 (bits, range) pairs x 1e5 samples")


def test_criterion_07_chain_spectra():
    start = time.perf_counter()
    setup = desk_setup(chain={"dac_bits": 2})  # K=8, n_b=2, B=3, N=25
    stages = run_chain(setup.tones, setup.phase_word, setup.system)
    bw = setup.system.bandwidth
    chain = setup.system.chain

    lpf_spectrum = np.fft.fft(stages.lpf)
    lpf_freqs = np.fft.fftfreq(stages.lpf.size, d=1.0 / chain.dac_sample_rate)
    out_band = np.abs(lpf_freqs) > bw
    lpf_total = np.sum(np.abs(lpf_spectrum) ** 2)
    lpf_outside = np.sum(np.abs(lpf_spectrum[out_band]) ** 2)
    assert lpf_total > 0
    assert lpf_outside <= 1e-20 * lpf_total

    # the received envelope holds only the band offsets -K..K around the carrier
    received = stages.received
    spectrum = np.fft.fft(received)
    offsets = np.fft.fftfreq(received.size, d=1.0 / received.size)
    outside = np.abs(offsets) > setup.system.tone_count
    total = np.sum(np.abs(spectrum) ** 2)
    outside_energy = np.sum(np.abs(spectrum[outside]) ** 2)
    assert total > 0
    assert outside_energy < 1e-20 * total

    # and so does the passband reference's received period, around the carrier
    plan = reference.passband_plan(setup.system, *reference.DESK_PLAN)
    received = reference.passband_outcome(
        setup.tones, setup.phase_word, setup.system, plan
    ).received
    spectrum = np.fft.rfft(received)
    freqs = np.fft.rfftfreq(received.size, d=1.0 / (plan.n_sim * SPACING))
    outside = np.abs(freqs - plan.carrier_bin * SPACING) > bw * (1.0 + 1e-12)
    total = np.sum(np.abs(spectrum) ** 2)
    outside_energy = np.sum(np.abs(spectrum[outside]) ** 2)
    assert total > 0
    assert outside_energy < 1e-20 * total
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(7, f"post-LPF and ER spectra confined to band in {elapsed:.2f} s")


def test_criterion_08_channel_values():
    geometry = element_positions(1, 1, 5.18e9)
    receiver = ReceiverPosition(0.0, 3.0, 0.0)
    gain = build_channel_matrix(geometry, receiver, 2.0).coefficients_at(geometry.carrier)
    assert_allclose(abs(gain[0, 0]), 3.761e-3, rtol=1e-3)
    assert radiation_profile(0.0, 2.0) == 6.0
    assert radiation_profile(0.0, 3.0) == 8.0

    # superposition linearity of the receive combiner: the per-branch
    # reference and the library's one-pass beam gain
    rng = np.random.default_rng(8)
    n = 180
    geom2 = element_positions(1, 2, 5.18e9)
    channel = build_channel_matrix(geom2, receiver, 2.0)
    band, coefficients = passband_receive_band(channel, 64, 8, SPACING)
    a = rng.normal(size=(2, n))
    b = rng.normal(size=(2, n))
    out_mixed = received_signal(3.0 * a + 0.25 * b, band, coefficients)
    out_a = received_signal(a, band, coefficients)
    out_b = received_signal(b, band, coefficients)
    assert_allclose(out_mixed, 3.0 * out_a + 0.25 * out_b, atol=1e-10)
    word = PhaseWord([1, 6], 3)
    beam = [reference.beamformed_received(x, word, 1.5, band, coefficients) for x in (a[0], b[0])]
    mixed = 3.0 * a[0] + 0.25 * b[0]
    out_mixed = reference.beamformed_received(mixed, word, 1.5, band, coefficients)
    assert_allclose(out_mixed, 3.0 * beam[0] + 0.25 * beam[1], atol=1e-10)
    # the library's fold on complex envelopes, with complex weights
    a, b = a[0] + 1j * a[1], b[0] + 1j * b[1]
    angles = word.angles()
    beam = [received_envelope(x, angles, 1.5, coefficients) for x in (a, b)]
    out_mixed = received_envelope((3.0 - 1.0j) * a + 0.25j * b, angles, 1.5, coefficients)
    assert_allclose(out_mixed, (3.0 - 1.0j) * beam[0] + 0.25j * beam[1], atol=1e-10)
    _report(8, "boresight gain 3.761e-3, profile peak 2(b+1), combiner linear to 1e-10")


def test_criterion_09_pso_mechanics():
    start = time.perf_counter()
    setup = desk_setup(swarm={"particles": 20, "iterations": 50, "seed": 9})
    lower, upper = particle_bounds(setup.system, setup.swarm)

    def watch(iteration, positions, best):
        assert np.all(positions >= lower) and np.all(positions <= upper)

    first = pso_run(setup.system, setup.swarm, callback=watch)
    assert np.all(np.diff(first.fitness_trace) <= 0.0)
    second = pso_run(setup.system, setup.swarm)
    assert first.best_fitness == second.best_fitness
    assert np.array_equal(first.fitness_trace, second.fitness_trace)
    assert np.array_equal(first.tones.amplitudes, second.tones.amplitudes)

    # constructed feasible/infeasible pair: feasible must rank strictly better
    word = PhaseWord(np.zeros(25, dtype=int), 3)
    feasible = evaluate_candidate(
        ToneSet(np.full(8, 1.0), np.zeros(8), SPACING), word, setup.system, setup.swarm
    )
    infeasible = evaluate_candidate(
        ToneSet(np.full(8, 0.2), np.zeros(8), SPACING), word, setup.system, setup.swarm
    )
    assert feasible.feasible and not infeasible.feasible
    assert feasible.fitness < setup.swarm.penalty <= infeasible.fitness
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(9, f"PSO trace/bounds/determinism/penalty ordering verified in {elapsed:.1f} s")


def test_criterion_10_pso_vs_brute_force():
    start = time.perf_counter()
    setup = toy_setup()  # K=1, N=2, B=1, 8-bit DAC, desk profile
    grid = brute_force_grid(21, 16, setup.system, setup.swarm)
    assert grid.evaluations == 21 * 16 * 4 == 1344
    assert grid.feasible
    wins = 0
    for seed in range(1, 11):
        run = toy_setup(particles=20, iterations=50, seed=seed)
        result = pso_run(run.system, run.swarm)
        if result.best_fitness <= 1.05 * grid.best_fitness:
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 8
    assert elapsed < 120.0
    _report(
        10,
        f"PSO within 1.05x of the {grid.best_fitness:.1f} W grid optimum in {wins}/10 seeds"
        f" ({elapsed:.0f} s)",
    )


def _trend_run(seed, dac_bits, rf_carrier=None, distance=0.5, ps_bits=6,
               amplitude_max=2.0):
    # instance choices (receiver distance, B, amplitude bound, budget) keep
    # the swarm noise floor well under the 3.78 mW DAC-power margin between
    # 6 and 8 bits; common seeds across points pair the comparisons
    overrides = {
        "receiver": {"position": [0.0, distance, 0.0]},
        "chain": {"dac_bits": dac_bits, "ps_bits": ps_bits},
        "swarm": {
            "seed": seed,
            "particles": 32,
            "iterations": 500,
            "amplitude_max": amplitude_max,
        },
    }
    if rf_carrier is not None:
        overrides["channel"] = {"boresight_exponent": 2.0, "rf_carrier": rf_carrier}
    setup = desk_setup(**overrides)
    return pso_run(setup.system, setup.swarm).best_fitness


@pytest.mark.slow
def test_criterion_11_trend_reproduction():
    start = time.perf_counter()
    seeds = range(1, 6)

    # DAC-resolution trend at K=8: losing bits costs waveform quality,
    # adding bits past the knee costs DAC power
    medians = {}
    for dac_bits in (1, 2, 3, 6, 8):
        medians[dac_bits] = float(np.median([_trend_run(s, dac_bits) for s in seeds]))
    assert medians[3] < medians[1]
    assert medians[8] > medians[6]

    # carrier trend at the full 3 m link with Fig-6-style settings: shorter
    # wavelengths raise path loss, so consumption never drops
    carrier_medians = []
    for rf_carrier in (2.4e9, 5.18e9, 10e9):
        values = [
            _trend_run(s, 3, rf_carrier=rf_carrier, distance=3.0, ps_bits=3)
            for s in seeds
        ]
        carrier_medians.append(float(np.median(values)))
    assert carrier_medians[0] <= carrier_medians[1] <= carrier_medians[2]

    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    nb_text = ", ".join(f"n_b={k}: {v * 1e3:.1f} mW" for k, v in medians.items())
    fca_text = " <= ".join(f"{v * 1e3:.0f} mW" for v in carrier_medians)
    _report(11, f"trends hold ({nb_text}; f_ca medians {fca_text}) in {elapsed:.0f} s")


@pytest.mark.slow
def test_criterion_12_end_to_end_feasibility():
    start = time.perf_counter()
    setup = desk_setup(swarm={"seed": 1, "particles": 30, "iterations": 150})
    assert setup.swarm.required_dc_power == 20e-6
    assert setup.swarm.amplitude_max == 300.0
    result = pso_run(setup.system, setup.swarm)
    assert result.feasible
    resim = evaluate_solution(result.tones, result.phase_word, setup.system)
    assert resim.harvest.p_out_dc >= 20e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        12,
        f"optimizer meets 20 uW at 3 m (re-simulated {resim.harvest.p_out_dc * 1e6:.2f} uW,"
        f" P_c {result.best_fitness:.3f} W) in {elapsed:.0f} s",
    )
