"""The envelope chain: the amplifier's first zone, the rectenna's I0 table,
their error budget, and the passband reference they replace."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.special import i0e

from conftest import desk_setup, received_envelope, toy_setup
from reference import (
    PAPER_PLAN,
    gathered_amplify_envelope,
    i0e_rhs_log_mean,
    passband_outcome,
    passband_plan,
    rapp_amplifier,
)
from wptsim import PhaseWord, RectennaParams, ToneSet, evaluate_batch, evaluate_solution
from wptsim.cli import EXIT_INFEASIBLE, EXIT_OK, main
from wptsim.config import build_setup, load_config
from wptsim.optimizer import brute_force_grid
from wptsim.power_model import hpa_power
import wptsim.rectenna
from wptsim.rectenna import (
    _i0e,
    _i0e_table,
    dc_output_voltage,
    harvest_from_signal,
    harvested_power,
    rhs_log_mean,
)
import wptsim.signal_chain
from wptsim.signal_chain import (
    ZONE_POINTS,
    ZONE_TABLE_NODES,
    _read_table,
    _zone_table,
    amplify_envelope,
    complex_envelope,
    first_zone,
    quantize_dac,
    synthesize_multitone,
)

SPACING = 1.25e6
GAIN, SATURATION, SMOOTHNESS = 10.0, 10.0, 4.0


def candidates(rng, system, bounds, per_bound=6):
    """The system's default waveform is added by the callers; these are random."""
    bits = system.chain.ps_bits
    for bound in bounds:
        for _ in range(per_bound):
            tones = ToneSet(
                rng.uniform(0.0, bound, system.tone_count),
                rng.uniform(0.0, 2.0 * np.pi, system.tone_count),
                SPACING,
            )
            yield tones, PhaseWord(rng.integers(0, 2**bits, system.element_count), bits)


def harvest_and_hpa(tones, word, system, samples, points, nodes):
    """p_out_dc and p_hpa of the envelope chain at M = samples, P = points and a
    table of `nodes` nodes: the amplifier reads the table _zone_table builds."""
    chain, power = system.chain, system.power
    digital = synthesize_multitone(tones.amplitudes, tones.phases, system.n_dac)
    dac = quantize_dac(digital, chain.dac_bits, chain.dac_range)
    mixer = complex_envelope(dac, system.tone_count, samples)
    table = _zone_table(float(chain.hpa_smoothness), points, nodes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wptsim.signal_chain, "_zone_table", lambda smoothness: table)
        hpa, p_in, p_out = amplify_envelope(
            mixer, chain.hpa_gain, chain.hpa_saturation, chain.hpa_smoothness
        )
    received = received_envelope(
        hpa, word.angles(), chain.ps_insertion_loss, system.band_coefficients
    )
    return (
        harvest_from_signal(received, system.rectenna).p_out_dc,
        hpa_power(p_in, p_out, power.hpa_input_resistance, power.hpa_output_resistance),
    )


def test_matches_the_passband_reference_at_sixteen_times_the_paper_rate():
    # the passband chain aliases the amplifier's harmonics into the band by
    # an amount that depends on the rate (+1.1% p_out_dc at the default
    # 2.5x); at 16x it is the high-rate value the envelope chain must give
    default = build_setup(load_config(profile="paper"))
    carrier_bin, n_sim = PAPER_PLAN
    fine = passband_plan(default.system, carrier_bin, 16 * n_sim)
    assert fine.n_sim == 16 * 10380
    pairs = [(default.tones, default.phase_word)]
    pairs += candidates(np.random.default_rng(16), default.system, (3.0, 30.0, 300.0))
    for tones, word in pairs:
        outcome = evaluate_solution(tones, word, default.system)
        reference = passband_outcome(tones, word, default.system, fine)
        assert_allclose(outcome.harvest.p_out_dc, reference.p_out_dc, rtol=1e-4)
        assert_allclose(outcome.power.p_hpa, reference.p_hpa, rtol=1e-4)


@pytest.mark.parametrize("tone_count", [1, 8])
def test_doubling_the_envelope_the_zone_rule_or_the_table_moves_nothing(tone_count):
    setup = desk_setup(waveform={"tone_count": tone_count})
    system = setup.system
    samples = system.n_env
    pairs = [(setup.tones, setup.phase_word)]
    pairs += candidates(np.random.default_rng(tone_count), system, (3.0, 30.0, 300.0, 1000.0))
    finer_table = (samples, ZONE_POINTS, 2 * ZONE_TABLE_NODES - 1)
    table_moved = False
    for tones, word in pairs:
        base = harvest_and_hpa(tones, word, system, samples, ZONE_POINTS, ZONE_TABLE_NODES)
        # the helper is the chain
        outcome = evaluate_solution(tones, word, system)
        assert base == (outcome.harvest.p_out_dc, outcome.power.p_hpa)
        for doubled in (
            (2 * samples, ZONE_POINTS, ZONE_TABLE_NODES),
            (samples, 2 * ZONE_POINTS, ZONE_TABLE_NODES),
            finer_table,
        ):
            moved = harvest_and_hpa(tones, word, system, *doubled)
            assert_allclose(moved, base, rtol=1e-9, atol=0)
            table_moved |= doubled == finer_table and moved != base
    # the amplifier did read the finer table
    assert table_moved


@settings(max_examples=60, deadline=None)
@given(drive=st.floats(1e-6, 300.0), smoothness=st.sampled_from([1.0, 2.5, 4.0, 8.0]))
def test_zone_is_the_first_harmonic_and_the_mean_square(drive, smoothness):
    # c1(A) and h(A) against the rfft of the amplifier output over one cycle
    n = 4096
    amplitude = drive * SATURATION / GAIN
    output = rapp_amplifier(
        amplitude * np.cos(2.0 * np.pi * np.arange(n) / n), GAIN, SATURATION, smoothness
    )
    ratio, power = first_zone(np.array([GAIN * amplitude / SATURATION]), smoothness, points=n)
    assert_allclose(
        GAIN * ratio[0] * amplitude, 2.0 * np.fft.rfft(output)[1].real / n, rtol=1e-9
    )
    assert_allclose(SATURATION**2 * power[0], np.mean(output**2), rtol=1e-9)


def zone_reference(amplitude, smoothness):
    """c1(A)/A and h(A) by the rule at four times the chain's points per carrier
    cycle and octave of drive, one amplitude at a time."""
    ratio, power = np.empty_like(amplitude), np.empty_like(amplitude)
    for i, value in enumerate(amplitude):
        drive = GAIN * value / SATURATION
        octaves = max(0, int(np.ceil(np.log2(max(drive, 1.0)))))
        points = 4 * ZONE_POINTS * 2**octaves
        pair = first_zone(np.array([drive]), smoothness, points)
        ratio[i], power[i] = GAIN * pair[0][0], SATURATION**2 * pair[1][0]
    return ratio, power


def test_zone_small_signal_limit_and_deep_saturation():
    amplitude = np.array([0.0, 1e-300, 1e-8])
    ratio, power = first_zone(GAIN * amplitude / SATURATION, SMOOTHNESS, ZONE_POINTS)
    ratio, power = GAIN * ratio, SATURATION**2 * power
    # no 0/0 at a zero sample: the small-signal gain G, and no output power
    assert_allclose(ratio, GAIN, rtol=1e-15)
    assert power[0] == 0.0
    assert_allclose(power[2], (GAIN * 1e-8) ** 2 / 2, rtol=1e-12)
    # deep in saturation the output tends to a square wave: c1 -> (4/pi) A_s
    # and h -> A_s^2, at drive 1e5 to within the knee's 1/D share
    envelope = np.array([1e5 * SATURATION / GAIN + 0j])
    output, _, p_out = amplify_envelope(envelope, GAIN, SATURATION, SMOOTHNESS)
    assert_allclose(abs(output[0]), 4.0 / np.pi * SATURATION, rtol=1e-5)
    assert_allclose(p_out, SATURATION**2, rtol=1e-5)


@pytest.mark.parametrize("smoothness", [1.0, 2.5, 4.0])
def test_table_reads_the_zone_rule(smoothness):
    # the chain reads c1 and h from the cubic table; against the rule itself,
    # over the drives the DAC lets through and far past them, up to 1000
    rng = np.random.default_rng(3)
    amplitude = np.concatenate([
        [0.0], rng.uniform(0.0, 2.0, 200), rng.uniform(2.0, 60.0, 100), 10 ** rng.uniform(1, 3, 40)
    ])
    envelope = amplitude * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, amplitude.size))
    output, p_in, p_out = amplify_envelope(envelope, GAIN, SATURATION, smoothness)
    ratio, power = zone_reference(amplitude, smoothness)
    # within the chain's 1e-9 budget (measured 1.8e-10 at worst, at smoothness 1)
    assert_allclose(output, ratio * envelope, rtol=1e-9, atol=0)
    assert_allclose(p_out, np.mean(power), rtol=1e-9)
    assert_allclose(p_in, np.mean(amplitude**2) / 2, rtol=1e-14)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), smoothness=st.sampled_from([1.0, 2.5, 4.0]))
def test_row_by_row_table_read_equals_the_whole_gather(data, smoothness):
    # one period, a batch of periods and a batch of batches, at drives 0-300,
    # with at least one sample in the table's last interval: drive >= 8192
    # puts x*intervals at or past intervals - 1, and near 2^53 and beyond x
    # rounds to 1, where the interval index is clamped
    leading = data.draw(st.sampled_from([(), (3,), (2, 3)]))
    shape = (*leading, data.draw(st.integers(1, 48)))
    drive = data.draw(arrays(float, shape, elements=st.floats(0.0, 300.0)))
    deep = data.draw(st.integers(0, drive.size - 1))
    drive.flat[deep] = data.draw(st.floats(8192.0, 1e20))
    phase = data.draw(arrays(float, shape, elements=st.floats(0.0, 2.0 * np.pi)))
    envelope = drive * (SATURATION / GAIN) * np.exp(1j * phase)
    intervals = _zone_table(smoothness).shape[-1]
    x = drive.flat[deep] / (1.0 + drive.flat[deep])
    assert int(x * intervals) >= intervals - 1
    expected = gathered_amplify_envelope(envelope, GAIN, SATURATION, smoothness)
    actual = amplify_envelope(envelope, GAIN, SATURATION, smoothness)
    for name, got, want in zip(("output", "p_in", "p_out"), actual, expected):
        assert np.shape(got) == np.shape(want) == (shape if name == "output" else leading)
        assert np.array_equal(got, want), name


RECTENNA = RectennaParams(50.0, 1600.0, 5e-6, 25.86e-3, 1.05)
EXPONENT_SCALE = np.sqrt(50.0) / (1.05 * 25.86e-3)  # c = sqrt(R_s) / (eta V_0)


def test_i0e_port_equals_scipy_at_the_table_nodes():
    u = np.linspace(0.0, 1.0, ZONE_TABLE_NODES)
    z = u[:-1] / (1.0 - u[:-1])
    assert np.array_equal(_i0e(z), i0e(z))


@settings(max_examples=100, deadline=None)
@given(z=arrays(float, st.integers(1, 64), elements=st.floats(0.0, 1e300)))
def test_i0e_port_equals_scipy(z):
    # both Chebyshev series, their switch at 8, subnormals and the top of the range
    edges = [0.0, 5e-324, 1e-310, 2.0**-1022, 8.0, np.nextafter(8.0, 0.0),
             np.nextafter(8.0, 9.0), 1e300, 1e308]
    z = np.concatenate([z, edges])
    assert np.array_equal(_i0e(z), i0e(z))


def tabulated_i0e(z):
    """i0e at exponents z >= 0 as the rectenna reads it: T(u) / sqrt(1 + z)."""
    inverse, _, (scaled,) = _read_table(_i0e_table(), np.array(z, dtype=float))
    return scaled * np.sqrt(inverse)


@settings(max_examples=60, deadline=None)
@given(z=arrays(float, st.integers(1, 64), elements=st.floats(0.0, 1e15)))
def test_tabulated_i0e_is_within_1e_12_of_scipy(z):
    # every interval, the last one included; z >= 2^53 rounds u = z/(1 + z)
    # to 1, where the interval index is clamped to intervals - 1
    z = np.concatenate([z, np.logspace(-12, 15, 541), [0.0, 8191.0, 2.0**53, 1e17, 1e300]])
    assert_allclose(tabulated_i0e(z), i0e(z), rtol=1e-12, atol=0.0)
    assert tabulated_i0e(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_table_read_rhs_log_matches_the_scipy_form(data):
    # one period, a batch of periods and a batch of batches, at peak
    # exponents z = c|b| from 0 to 1e4, one of which may sit in the table's
    # last interval (z >= 8191, u * intervals >= intervals - 1)
    leading = data.draw(st.sampled_from([(), (3,), (2, 3)]))
    shape = (*leading, data.draw(st.integers(1, 48)))
    peak = data.draw(st.floats(0.0, 1e4))
    z = peak * data.draw(arrays(float, shape, elements=st.floats(0.0, 1.0)))
    if data.draw(st.booleans()):
        z.flat[data.draw(st.integers(0, z.size - 1))] = data.draw(st.floats(8191.0, 1e4))
    phase = data.draw(arrays(float, shape, elements=st.floats(0.0, 2.0 * np.pi)))
    envelope = z / EXPONENT_SCALE * np.exp(1j * phase)
    expected = i0e_rhs_log_mean(envelope, RECTENNA)
    actual = rhs_log_mean(envelope, RECTENNA)
    assert np.shape(actual) == np.shape(expected) == leading
    # 1e-12, plus one rounding of rhs_log: above 4096 a double's spacing
    # exceeds 1e-12, and both forms add the same shift to their log-means
    assert (np.abs(actual - expected) <= 1e-12 + np.spacing(np.abs(expected))).all()
    # p_out_dc is about rhs_log^2 at small drives, so an absolute error of
    # I0 near 1, in either form, is a growing relative error there; from
    # rhs_log = 1 (peak z about 2.4) on it stays within 1e-12 relative
    harvest = harvest_from_signal(envelope, RECTENNA)
    reference = harvested_power(dc_output_voltage(expected, RECTENNA), RECTENNA.load_resistance)
    driven = expected >= 1.0
    assert_allclose(harvest.p_out_dc[driven], reference[driven], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("leading", [(), (3,), (2, 3)])
def test_an_all_zero_period_harvests_exactly_zero(leading):
    envelope = np.zeros((*leading, 48), dtype=complex)
    assert (rhs_log_mean(envelope, RECTENNA) == 0.0).all()
    assert (harvest_from_signal(envelope, RECTENNA).p_out_dc == 0.0).all()


def test_a_batch_and_a_grid_call_i0e_on_no_received_sample(monkeypatch):
    # the library's i0e is called only to build the rectenna's table, at the
    # first evaluation; after that a desk batch and a toy grid read I0 from it
    desk, toy = desk_setup().system, toy_setup()
    rng = np.random.default_rng(17)
    batch = (
        rng.uniform(0.0, 300.0, (30, desk.tone_count)),
        rng.uniform(0.0, 2.0 * np.pi, (30, desk.tone_count)),
        rng.integers(0, 2**desk.chain.ps_bits, (30, desk.element_count)),
    )
    evaluate_batch(*batch, desk)
    elements = []

    def counted(z):
        elements.append(np.size(z))
        return _i0e(z)

    monkeypatch.setattr(wptsim.rectenna, "_i0e", counted)
    evaluate_batch(*batch, desk)
    brute_force_grid(21, 16, toy.system, toy.swarm)
    assert elements == []


def test_zero_and_deep_drive_evaluate():
    zero = desk_setup(waveform={"amplitudes": [0.0] * 8})
    outcome = evaluate_solution(zero.tones, zero.phase_word, zero.system)
    assert outcome.harvest.p_out_dc == 0.0
    assert outcome.power.p_hpa == 0.0
    for overrides in ({"waveform": {"amplitudes": [1000.0] * 8}}, {"chain": {"hpa_gain": 1e12}}):
        deep = desk_setup(**overrides)
        outcome = evaluate_solution(deep.tones, deep.phase_word, deep.system)
        assert outcome.harvest.p_out_dc > 0 and np.isfinite(outcome.power.p_hpa)
        # the first zone's output stays below (4/pi) A_s, its square-wave limit
        rail = 4.0 / np.pi * deep.system.chain.hpa_saturation
        assert np.max(np.abs(outcome.stages.hpa)) <= rail * (1.0 + 1e-12)


def test_results_do_not_depend_on_the_passband_plan():
    # the chain never reads a carrier bin or a simulation rate: the rate the
    # benchmark harness reads changes no result, and desk is paper's alias
    base = desk_setup()
    expected = evaluate_solution(base.tones, base.phase_word, base.system)
    for rate in (4 * 180 * SPACING, 180 * SPACING):
        chain = dataclasses.replace(base.system.chain, sim_sample_rate=rate)
        other = dataclasses.replace(base.system, chain=chain)
        outcome = evaluate_solution(base.tones, base.phase_word, other)
        assert outcome.harvest == expected.harvest
        assert outcome.power == expected.power
    paper = build_setup(load_config(profile="paper"))
    assert paper.system.chain == base.system.chain
    outcome = evaluate_solution(paper.tones, paper.phase_word, paper.system)
    assert outcome.harvest == expected.harvest
    assert outcome.power == expected.power


@pytest.mark.parametrize(
    "text", ["waveform:\n  amplitudes: [0, 0, 0, 0, 0, 0, 0, 0]\n", "chain:\n  hpa_gain: 1.0e+12\n"]
)
def test_zero_and_deep_drive_simulate_exits_zero(tmp_path, capsys, text):
    path = tmp_path / "drive.yaml"
    path.write_text(text)
    assert main(["simulate", "--profile", "paper", "--config", str(path),
                 "--out", str(tmp_path / "report.yaml")]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    ("text", "code"),
    [
        # every amplitude far below the DAC's step: the swarm sends zero
        # waveforms, which harvest nothing
        ("swarm:\n  amplitude_max: 1.0e-300\n", EXIT_INFEASIBLE),
        ("chain:\n  hpa_gain: 1.0e+12\nswarm:\n  amplitude_max: 900.0\n", EXIT_OK),
    ],
)
def test_zero_and_deep_drive_optimize_without_numerical_failure(tmp_path, capsys, text, code):
    path = tmp_path / "drive.yaml"
    path.write_text(text + "  particles: 4\n  iterations: 2\n")
    assert main(["optimize", "--profile", "desk", "--config", str(path),
                 "--out", str(tmp_path / "report.yaml")]) == code
    assert "numerical" not in capsys.readouterr().err
