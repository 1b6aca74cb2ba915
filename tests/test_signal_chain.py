import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import wptsim
from conftest import desk_setup
from wptsim import ConfigurationError, PhaseWord, ToneSet, run_chain
from reference import (
    apply_phase_shifters,
    passband_plan,
    rapp_amplifier,
    round_half_away,
    upconvert,
)
from wptsim.signal_chain import (
    _round_half_away,
    default_sim_rate,
    lowpass_filter,
    quantize_dac,
    synthesize_multitone,
)

SPACING = 1.25e6


def multitone_oracle(amplitudes, phases, tone_spacing, sample_rate):
    """Direct per-sample summation of the tone series, no FFT machinery."""
    n = int(round(sample_rate / tone_spacing))
    k_count = len(amplitudes)
    out = []
    for sample in range(n):
        acc = 0j
        for k in range(k_count):
            angle = 2.0 * np.pi * k * tone_spacing * sample / sample_rate + phases[k]
            acc += amplitudes[k] * cmath.exp(1j * angle)
        out.append(acc / k_count)
    return np.array(out)


def quantizer_oracle(value, bits, full_scale):
    """Independent scalar saturating quantizer (integer codes, exact rationals)."""
    step = 2.0 * full_scale / 2**bits
    code = math.floor(Fraction(abs(value)) / Fraction(step) + Fraction(1, 2))
    code = min(code, 2 ** (bits - 1))
    return np.copysign(code * step, value)


class TestToneSet:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            ToneSet([1.0], [0.0, 0.0], SPACING)
        with pytest.raises(ConfigurationError):
            ToneSet([-1.0], [0.0], SPACING)
        with pytest.raises(ConfigurationError):
            ToneSet([1.0], [2.0 * np.pi], SPACING)
        with pytest.raises(ConfigurationError):
            ToneSet([1.0], [0.0], 0.0)


class TestSynthesize:
    def test_single_dc_tone_is_constant(self):
        tones = ToneSet([1.0], [0.0], SPACING)
        sig = synthesize_multitone(tones.amplitudes, tones.phases, 8)
        assert np.iscomplexobj(sig)
        assert np.all(sig == 1.0 + 0.0j)

    def test_zero_amplitudes(self):
        tones = ToneSet([0.0, 0.0], [0.0, 0.0], SPACING)
        sig = synthesize_multitone(tones.amplitudes, tones.phases, 8)
        assert np.all(sig == 0.0)

    def test_two_tone_against_oracle(self):
        tones = ToneSet([1.0, 1.0], [0.0, 0.0], SPACING)
        sig = synthesize_multitone(tones.amplitudes, tones.phases, 8)
        assert sig.size == 8
        assert_allclose(sig[0], 1.0 + 0.0j, rtol=1e-12)
        expected = multitone_oracle([1.0, 1.0], [0.0, 0.0], SPACING, 10e6)
        assert_allclose(sig, expected, rtol=1e-10, atol=1e-12)

    def test_random_tones_against_oracle(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 17))
            amplitudes = rng.random(k) * 5.0
            phases = rng.random(k) * 2.0 * np.pi * 0.999
            n = 2 * 16 * 2  # covers K up to 16
            tones = ToneSet(amplitudes, phases, SPACING)
            sig = synthesize_multitone(tones.amplitudes, tones.phases, n)
            expected = multitone_oracle(amplitudes, phases, SPACING, n * SPACING)
            assert_allclose(sig, expected, rtol=1e-10, atol=1e-12)

    def test_periodicity_of_first_wrapped_sample(self, rng):
        amplitudes = rng.random(8)
        tones = ToneSet(amplitudes, np.zeros(8), SPACING)
        sig = synthesize_multitone(tones.amplitudes, tones.phases, 80)
        # continue the series one sample past the period by direct evaluation
        wrapped = multitone_oracle(amplitudes, np.zeros(8), SPACING, 100e6)[0]
        assert abs(sig[0] - wrapped) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    tones=st.integers(1, 12),
    dac_extra=st.integers(0, 24),
    carrier_extra=st.integers(1, 40),
    sim_extra=st.integers(1, 41),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_matches_direct_sums_on_every_grid(tones, dac_extra, carrier_extra, sim_extra, seed):
    # n_dac >= 2K, odd and even (at 2K the LPF keeps the Nyquist bin and the
    # resampler splits it), and every passband plan the reference samples:
    # carrier bin m > K, n_sim > 2 (m + K) and n_sim >= n_dac, odd and even
    n_dac, m = 2 * tones + dac_extra, tones + carrier_extra
    n_sim = max(2 * (m + tones) + sim_extra, n_dac)
    setup = desk_setup(
        waveform={"tone_count": tones},
        array={"rows": 1, "cols": 1},
        chain={"dac_sample_rate": n_dac * SPACING},
    )
    rng = np.random.default_rng(seed)
    amplitudes = rng.uniform(0.0, 2.0, tones)
    phases = rng.uniform(0.0, 2.0 * np.pi, tones)
    stages = run_chain(ToneSet(amplitudes, phases, SPACING), setup.phase_word, setup.system)
    expected = multitone_oracle(amplitudes, phases, SPACING, n_dac * SPACING)
    assert_allclose(stages.digital, expected, rtol=1e-10, atol=1e-12)
    # the LPF's DFT bins k, the Nyquist bin of an even period split between
    # +-n_dac/2, summed at M envelope samples and, through the passband
    # reference, at n_sim passband samples with the carrier at bin m:
    # (1/n_dac) sum_k L[k] e^{j 2 pi k t / M} and
    # Re{(1/n_dac) sum_k L[k] e^{j 2 pi (m + k) t / n_sim}}
    n_env = setup.system.n_env
    envelope = np.zeros(n_env, dtype=complex)
    passband = np.zeros(n_sim, dtype=complex)
    for j, value in enumerate(np.fft.fft(stages.lpf)):
        k = j if 2 * j < n_dac else j - n_dac
        terms = [(k, 0.5), (-k, 0.5)] if 2 * j == n_dac else [(k, 1.0)]
        for offset, weight in terms:
            t = np.arange(n_env)
            envelope += weight * value * np.exp(2j * np.pi * ((offset * t) % n_env) / n_env)
            t = np.arange(n_sim)
            passband += weight * value * np.exp(2j * np.pi * (((m + offset) * t) % n_sim) / n_sim)
    envelope /= n_dac
    passband = passband.real / n_dac
    assert_allclose(stages.mixer, envelope, rtol=0, atol=1e-12 * np.max(np.abs(envelope)))
    plan = passband_plan(setup.system, m, n_sim)
    assert (plan.n_sim, plan.carrier_bin) == (n_sim, m)
    mixer = upconvert(stages.lpf, tones, plan.carrier_bin, plan.n_sim)
    assert_allclose(mixer, passband, rtol=0, atol=1e-12 * np.max(np.abs(passband)))


class TestQuantizer:
    def test_spec_points(self):
        sig = np.array([0.3 + 0.0j] * 8)
        assert_allclose(quantize_dac(sig, 2, 1.0).real, 0.5)
        sig = np.array([0.24 + 0.0j] * 8)
        assert np.all(quantize_dac(sig, 2, 1.0).real == 0.0)
        sig = np.array([1.7 + 0.0j] * 8)
        assert_allclose(quantize_dac(sig, 3, 1.0).real, 1.0)

    def test_matches_oracle_and_bounds(self, rng):
        for bits in (1, 2, 3, 6, 10):
            for full_scale in (0.5, 1.0, 2.0):
                step = 2.0 * full_scale / 2**bits
                values = rng.uniform(-2 * full_scale, 2 * full_scale, 500)
                sig = values.astype(complex)[:8]
                out = quantize_dac(sig, bits, full_scale).real
                for v, q in zip(values[:8], out):
                    assert q == pytest.approx(quantizer_oracle(v, bits, full_scale), abs=0)
                clamped = np.clip(values[:8], -full_scale, full_scale)
                assert np.all(np.abs(out - clamped) <= step / 2 + 1e-12)
                assert np.all(np.abs(out) <= full_scale + 1e-12)
                codes = out / step
                assert_allclose(codes, np.round(codes), atol=1e-9)

    def test_half_step_boundary_rounds_exactly(self):
        # the largest double below half a step rounds to 0, even though
        # |v| / step + 0.5 rounds to exactly 1.0; half a step rounds away
        below = np.nextafter(0.125, 0.0)
        sig = np.array([below, -below, 0.125, -0.125]) + 0j
        out = quantize_dac(sig, 3, 1.0).real
        assert np.array_equal(out, [0.0, 0.0, 0.25, -0.25])
        for bits, full_scale in ((1, 1.0), (3, 2.0), (6, 0.5), (52, 1.0)):
            step = 2.0 * full_scale / 2**bits
            top = 2 ** (bits - 1)
            for code in {0, top // 2, top - 1}:
                edge = (code + 0.5) * step
                values = np.array([np.nextafter(edge, 0.0), edge]) + 0j
                out = quantize_dac(values, bits, full_scale).real
                assert list(out / step) == [code, code + 1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), bits=st.integers(1, 53), full_scale=st.sampled_from([0.5, 1.0, 2.0]))
    def test_in_place_rounding_is_bit_equal(self, data, bits, full_scale):
        # clipped codes in [-2^(B-1), 2^(B-1)]: signed zeros, exact half
        # steps and their neighbours, the rails and anything between
        top = 2.0 ** (bits - 1)
        half = st.integers(-int(top), int(top) - 1).map(lambda k: k + 0.5)
        code = st.one_of(
            st.sampled_from([0.0, -0.0, top, -top]),
            half,
            half.map(lambda h: np.nextafter(h, 0.0)),
            half.map(lambda h: np.nextafter(h, np.copysign(np.inf, h))),
            st.floats(-top, top),
        )
        codes = np.array(data.draw(st.lists(code, min_size=2, max_size=64)))
        codes = codes[: codes.size // 2 * 2]
        # _round_half_away overwrites its argument, so it rounds a copy
        assert np.array_equal(
            _round_half_away(codes.copy()).view(np.uint64), round_half_away(codes).view(np.uint64)
        )
        step = 2.0 * full_scale / 2.0**bits
        expected = round_half_away(np.clip(codes * step, -full_scale, full_scale) / step) * step
        out = quantize_dac((codes * step).view(complex), bits, full_scale)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    def test_components_quantized_independently(self, rng):
        values = rng.uniform(-1.5, 1.5, 8) + 1j * rng.uniform(-1.5, 1.5, 8)
        out = quantize_dac(values, 3, 1.0)
        re = quantize_dac(values.real.astype(complex), 3, 1.0).real
        im = quantize_dac(1j * values.imag, 3, 1.0).imag
        assert np.array_equal(out.real, re)
        assert np.array_equal(out.imag, im)


class TestLowpass:
    def test_passband_identity(self):
        tones = ToneSet(np.ones(4), np.zeros(4), SPACING)
        sig = synthesize_multitone(tones.amplitudes, tones.phases, 80)
        out = lowpass_filter(sig, 4)
        assert_allclose(out, sig, atol=1e-12)

    def test_stopband_annihilation(self):
        n = 80
        tone = np.exp(2j * np.pi * np.arange(n) * 6 / n)
        out = lowpass_filter(tone, 2)
        assert_allclose(out, 0.0, atol=1e-12)

    def test_dac_spectrum_cleared_above_bandwidth(self):
        tones = ToneSet(np.ones(8), np.zeros(8), SPACING)
        sig = synthesize_multitone(tones.amplitudes, tones.phases, 80)
        dac = quantize_dac(sig, 2, 1.0)
        spectrum_dac = np.fft.fft(dac)
        freqs = np.fft.fftfreq(80, d=1.0 / 100e6)
        outside = np.abs(freqs) > tones.count * SPACING
        assert np.any(np.abs(spectrum_dac[outside]) > 1e-6)  # DAC spills out of band
        out = lowpass_filter(dac, 8)
        spectrum = np.fft.fft(out)
        total_energy = np.sum(np.abs(spectrum) ** 2)
        outside_energy = np.sum(np.abs(spectrum[outside]) ** 2)
        assert outside_energy < 1e-20 * total_energy

    def test_idempotent_and_linear(self, rng):
        values = rng.normal(size=80) + 1j * rng.normal(size=80)
        other = rng.normal(size=80) + 1j * rng.normal(size=80)
        tone_count = 8  # 10 MHz at 100 MHz
        once = lowpass_filter(values, tone_count)
        twice = lowpass_filter(once, tone_count)
        assert_allclose(twice, once, atol=1e-12)
        combined = lowpass_filter(2.0 * values + 3.0 * other, tone_count)
        assert_allclose(
            combined, 2.0 * once + 3.0 * lowpass_filter(other, tone_count), atol=1e-12
        )

    @pytest.mark.parametrize("n, tone_count", [(80, 8), (80, 1), (16, 8), (17, 8), (16, 12)])
    def test_keeps_the_bins_within_tone_count_of_dc(self, rng, n, tone_count):
        # the band offsets -K..K mod n against a mask on the circular distance
        # to DC; at n = 2K both keep the Nyquist bin, and below 2K + 1 every bin
        bins = np.arange(n)
        mask = np.minimum(bins, n - bins) <= tone_count
        for _ in range(20):
            values = rng.normal(size=n) + 1j * rng.normal(size=n)
            expected = np.fft.ifft(np.fft.fft(values) * mask)
            assert np.array_equal(lowpass_filter(values, tone_count), expected)


class TestUpconvert:
    def test_dc_becomes_pure_carrier(self):
        out = upconvert(np.ones(4, dtype=complex), 1, 4, 16)
        assert not np.iscomplexobj(out)
        expected = np.cos(2.0 * np.pi * 4 * np.arange(16) / 16)
        assert_allclose(out, expected, atol=1e-12)

    def test_zero_passthrough(self):
        out = upconvert(np.zeros(4, dtype=complex), 1, 4, 16)
        assert np.all(out == 0.0)

    def test_parseval_half_power(self, rng):
        tones = ToneSet(rng.random(8), rng.random(8) * 6.2, SPACING)
        base = synthesize_multitone(tones.amplitudes, tones.phases, 80)
        n_sim = round(default_sim_rate(64 * SPACING, tones.count * SPACING, SPACING) / SPACING)
        out = upconvert(base, 8, 64, n_sim)
        base_power = np.mean(np.abs(base) ** 2)
        pass_power = np.mean(out**2)
        assert_allclose(pass_power, base_power / 2.0, rtol=1e-6)


class TestRapp:
    def test_small_signal_linear(self):
        out = rapp_amplifier(np.array([0.1] * 8), 10.0, 10.0, 4.0)
        assert np.all(np.abs(out - 1.0) < 1e-8)

    def test_deep_saturation_point(self):
        out = rapp_amplifier(np.array([10.0] * 8), 10.0, 10.0, 4.0)
        expected = 100.0 * (1.0 + 1e8) ** (-0.125)  # direct-formula evaluation
        assert_allclose(out, expected, rtol=1e-12)
        assert_allclose(out, 9.99999990, rtol=1e-8)

    def test_zero_and_oddness(self, rng):
        values = np.concatenate([[0.0], rng.uniform(-50, 50, 7)])
        out = rapp_amplifier(values, 10.0, 10.0, 4.0)
        out_neg = rapp_amplifier(-values, 10.0, 10.0, 4.0)
        assert out[0] == 0.0
        assert np.array_equal(out_neg, -out)

    def test_bounded_and_monotone(self):
        out = rapp_amplifier(np.linspace(0.0, 1e3, 80000), 10.0, 10.0, 4.0)
        assert np.all(np.abs(out) < 10.0)
        # the curve is flat to below one ulp deep in saturation
        assert np.all(np.diff(out) >= -1e-12)

    def test_smoothness_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            rapp_amplifier(np.zeros(8), 10.0, 10.0, 0.5)

    def test_complex_input_rejected(self):
        # the amplifier only ever sees the real passband period
        with pytest.raises(ConfigurationError):
            rapp_amplifier(np.zeros(8, dtype=complex), 10.0, 10.0, 4.0)


class TestPhaseShifters:
    def _passband_tone(self, n=160, cycles=40):
        return np.cos(2.0 * np.pi * cycles * np.arange(n) / n)

    def test_zero_phase_unit_loss_is_exact_identity(self):
        sig = self._passband_tone()
        word = PhaseWord([0], 3)
        (out,) = apply_phase_shifters(sig, word, 1.0)
        assert np.array_equal(out, sig)

    def test_one_bit_flip(self):
        sig = self._passband_tone()
        word = PhaseWord([1], 1)
        (out,) = apply_phase_shifters(sig, word, 1.0)
        assert_allclose(out, -sig, atol=1e-12)

    def test_amplitude_scale_with_insertion_loss(self):
        sig = self._passband_tone()
        loss = 10.0**0.05  # 0.5 dB
        word = PhaseWord(np.zeros(25, dtype=int), 3)
        branches = apply_phase_shifters(sig, word, loss)
        assert len(branches) == 25
        scale = np.max(np.abs(branches[0])) / np.max(np.abs(sig))
        assert_allclose(scale, 0.1888, rtol=1e-3)

    def test_complex_input_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_phase_shifters(np.zeros(160, dtype=complex), PhaseWord([0], 3), 1.0)

    def test_out_of_range_level_rejected(self):
        with pytest.raises(ConfigurationError):
            PhaseWord([8], 3)
        for bits in (1.5, np.float64(3.0)):
            with pytest.raises(ConfigurationError, match="bits"):
                PhaseWord([0], bits)

    def test_rotation_matches_envelope_math(self):
        n, cycles = 160, 40
        idx = np.arange(n)
        sig = self._passband_tone(n, cycles)
        word = PhaseWord([3], 3)
        (out,) = apply_phase_shifters(sig, word, 1.0)
        angle = 2.0 * np.pi * 3 / 8
        expected = np.cos(2.0 * np.pi * cycles * idx / n - angle)
        assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [7, 8, 163, 180, 10380])
    def test_quadrature_matches_scipy_hilbert(self, n):
        # a quarter-turn rotation leaves the Hilbert transform, odd and even n
        x = np.random.default_rng(n).normal(size=n)
        (out,) = apply_phase_shifters(x, PhaseWord([2], 3), 1.0)
        assert_allclose(out, np.imag(scipy.signal.hilbert(x)), rtol=0, atol=1e-14)


def test_import_leaves_scipy_signal_out():
    # scipy.signal costs most of the import time and wptsim needs none of it
    assert not _loaded_after("import wptsim", "scipy.signal")


def test_import_leaves_scipy_optimize_out():
    # it costs a third of the import time and 20 MB; the root-solver oracle
    # bisects without it
    assert not _loaded_after("import wptsim", "scipy.optimize")
    oracle = (
        "from wptsim.rectenna import RectennaParams, solve_rectifier_equation\n"
        "solve_rectifier_equation(38.0, RectennaParams(50.0, 1600.0, 5e-6, 0.02586, 1.05))"
    )
    assert not _loaded_after(oracle, "scipy.optimize")


def test_import_leaves_scipy_out():
    # scipy.special alone costs about 280 ms and 24 MB of every command; the
    # rectenna evaluates i0e (here building its table) and Wright omega itself
    evaluation = (
        "import wptsim\n"
        "s = wptsim.build_setup(wptsim.load_config())\n"
        "wptsim.evaluate_solution(s.tones, s.phase_word, s.system)\n"
        "wptsim.evaluate_batch(s.tones.amplitudes[None], s.tones.phases[None],"
        " s.phase_word.levels[None], s.system)"
    )
    assert not _loaded_after(evaluation, "scipy")


def _loaded_after(code: str, module: str) -> bool:
    src = str(Path(wptsim.__file__).resolve().parents[1])
    code = f"import sys\n{code}\nprint({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


PUBLIC_NAMES = {
    "ConfigurationError", "NumericalError",
    "PhaseWord", "PowerBreakdown", "PowerParams", "ReceiverPosition", "RectennaParams",
    "SwarmConfig", "SystemModel", "ToneSet",
    "load_config", "build_setup", "element_positions",
    "evaluate_solution", "evaluate_batch", "run_chain",
    "pso_run", "brute_force_grid", "evaluate_candidate", "decode_particle", "particle_bounds",
}

# the stage kernels and the tests' oracles stay in their modules
REMOVED_NAMES = [
    "apply_phase_shifters", "received_signal", "channel_coefficient", "default_sim_rate",
    "upconvert", "beamformed_received", "lambert_w0", "fitness",
    "build_channel_matrix", "dac_power", "dc_output_voltage", "harvest_from_signal",
    "harvested_power", "hpa_power", "lambert_w0_log", "lowpass_filter", "quantize_dac",
    "radiation_profile", "rapp_amplifier", "rhs_log_mean", "signal_power",
    "solve_rectifier_equation", "synthesize_multitone", "total_power", "DomainError",
]


def test_public_names_resolve_and_the_removed_ones_are_gone():
    src = str(Path(wptsim.__file__).resolve().parents[1])
    code = (
        "import wptsim\n"
        "from wptsim import *\n"
        "missing = [n for n in wptsim.__all__ if n not in globals()]\n"
        f"removed = {REMOVED_NAMES!r}\n"
        "print(sorted(wptsim.__all__), missing, [n for n in removed if hasattr(wptsim, n)])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{sorted(PUBLIC_NAMES)} [] []"


def test_default_sim_rate_snaps_up():
    assert default_sim_rate(64 * SPACING, 8 * SPACING, SPACING) == 180 * SPACING
    assert default_sim_rate(5.18e9, 10e6, SPACING) == 10380 * SPACING
    # non-exact target rounds to the next multiple
    assert default_sim_rate(64 * SPACING, 1 * SPACING, SPACING) == 163 * SPACING
