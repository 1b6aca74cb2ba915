import cmath

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wptsim import (
    BASEBAND,
    PASSBAND,
    ConfigurationError,
    DomainError,
    PhaseWord,
    SampledSignal,
    ToneSet,
    apply_phase_shifters,
    default_sim_rate,
    lowpass_filter,
    quantize_dac,
    rapp_amplifier,
    synthesize_multitone,
    upconvert,
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
    """Independent scalar saturating quantizer (integer-code formulation)."""
    step = 2.0 * full_scale / 2**bits
    code = np.floor(abs(value) / step + 0.5)
    code = min(code, 2 ** (bits - 1))
    return np.copysign(code * step, value)


def make_baseband(samples, rate=10e6):
    return SampledSignal(np.asarray(samples), rate, SPACING, BASEBAND)


class TestToneSet:
    def test_invariants(self):
        with pytest.raises(DomainError):
            ToneSet([1.0], [0.0, 0.0], SPACING)
        with pytest.raises(DomainError):
            ToneSet([-1.0], [0.0], SPACING)
        with pytest.raises(DomainError):
            ToneSet([1.0], [2.0 * np.pi], SPACING)
        with pytest.raises(DomainError):
            ToneSet([1.0], [0.0], 0.0)

    def test_bandwidth(self):
        tones = ToneSet([1.0, 1.0], [0.0, 0.0], SPACING)
        assert tones.bandwidth == 2 * SPACING


class TestSynthesize:
    def test_single_dc_tone_is_constant(self):
        tones = ToneSet([1.0], [0.0], SPACING)
        sig = synthesize_multitone(tones, 10e6)
        assert sig.domain == BASEBAND
        assert np.all(sig.samples == 1.0 + 0.0j)

    def test_zero_amplitudes(self):
        tones = ToneSet([0.0, 0.0], [0.0, 0.0], SPACING)
        sig = synthesize_multitone(tones, 10e6)
        assert np.all(sig.samples == 0.0)

    def test_two_tone_against_oracle(self):
        tones = ToneSet([1.0, 1.0], [0.0, 0.0], SPACING)
        sig = synthesize_multitone(tones, 10e6)
        assert sig.samples.size == 8
        assert_allclose(sig.samples[0], 1.0 + 0.0j, rtol=1e-12)
        expected = multitone_oracle([1.0, 1.0], [0.0, 0.0], SPACING, 10e6)
        assert_allclose(sig.samples, expected, rtol=1e-10, atol=1e-12)

    def test_random_tones_against_oracle(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 17))
            amplitudes = rng.random(k) * 5.0
            phases = rng.random(k) * 2.0 * np.pi * 0.999
            rate = 2 * 16 * SPACING * 2  # covers K up to 16
            tones = ToneSet(amplitudes, phases, SPACING)
            sig = synthesize_multitone(tones, rate)
            expected = multitone_oracle(amplitudes, phases, SPACING, rate)
            assert_allclose(sig.samples, expected, rtol=1e-10, atol=1e-12)

    def test_non_commensurate_rate_rejected(self):
        tones = ToneSet([1.0], [0.0], SPACING)
        with pytest.raises(ConfigurationError):
            synthesize_multitone(tones, 10.3e6)

    def test_rate_below_bandwidth_rejected(self):
        tones = ToneSet(np.ones(8), np.zeros(8), SPACING)
        with pytest.raises(ConfigurationError):
            synthesize_multitone(tones, 10e6)  # needs >= 2 * 8 * 1.25 MHz

    def test_periodicity_of_first_wrapped_sample(self, rng):
        amplitudes = rng.random(8)
        tones = ToneSet(amplitudes, np.zeros(8), SPACING)
        sig = synthesize_multitone(tones, 100e6)
        # continue the series one sample past the period by direct evaluation
        wrapped = multitone_oracle(amplitudes, np.zeros(8), SPACING, 100e6)[0]
        assert abs(sig.samples[0] - wrapped) <= 1e-9


class TestQuantizer:
    def test_spec_points(self):
        sig = make_baseband(np.array([0.3 + 0.0j] * 8))
        assert_allclose(quantize_dac(sig, 2, 1.0).samples.real, 0.5)
        sig = make_baseband(np.array([0.24 + 0.0j] * 8))
        assert np.all(quantize_dac(sig, 2, 1.0).samples.real == 0.0)
        sig = make_baseband(np.array([1.7 + 0.0j] * 8))
        assert_allclose(quantize_dac(sig, 3, 1.0).samples.real, 1.0)

    def test_matches_oracle_and_bounds(self, rng):
        for bits in (1, 2, 3, 6, 10):
            for full_scale in (0.5, 1.0, 2.0):
                step = 2.0 * full_scale / 2**bits
                values = rng.uniform(-2 * full_scale, 2 * full_scale, 500)
                sig = make_baseband(values.astype(complex)[:8])
                out = quantize_dac(sig, bits, full_scale).samples.real
                for v, q in zip(values[:8], out):
                    assert q == pytest.approx(quantizer_oracle(v, bits, full_scale), abs=0)
                clamped = np.clip(values[:8], -full_scale, full_scale)
                assert np.all(np.abs(out - clamped) <= step / 2 + 1e-12)
                assert np.all(np.abs(out) <= full_scale + 1e-12)
                codes = out / step
                assert_allclose(codes, np.round(codes), atol=1e-9)

    def test_components_quantized_independently(self, rng):
        values = rng.uniform(-1.5, 1.5, 8) + 1j * rng.uniform(-1.5, 1.5, 8)
        sig = make_baseband(values)
        out = quantize_dac(sig, 3, 1.0).samples
        re = quantize_dac(make_baseband(values.real.astype(complex)), 3, 1.0).samples.real
        im = quantize_dac(make_baseband(1j * values.imag), 3, 1.0).samples.imag
        assert np.array_equal(out.real, re)
        assert np.array_equal(out.imag, im)


class TestLowpass:
    def test_passband_identity(self):
        tones = ToneSet(np.ones(4), np.zeros(4), SPACING)
        sig = synthesize_multitone(tones, 100e6)
        out = lowpass_filter(sig, tones.bandwidth)
        assert_allclose(out.samples, sig.samples, atol=1e-12)

    def test_stopband_annihilation(self):
        bw = 2 * SPACING
        n = 80
        tone = np.exp(2j * np.pi * np.arange(n) * round(3 * bw / SPACING) / n)
        sig = SampledSignal(tone, 100e6, SPACING, BASEBAND)
        out = lowpass_filter(sig, bw)
        assert_allclose(out.samples, 0.0, atol=1e-12)

    def test_dac_spectrum_cleared_above_bandwidth(self):
        tones = ToneSet(np.ones(8), np.zeros(8), SPACING)
        sig = synthesize_multitone(tones, 100e6)
        dac = quantize_dac(sig, 2, 1.0)
        spectrum_dac = np.fft.fft(dac.samples)
        freqs = dac.frequencies()
        outside = np.abs(freqs) > tones.bandwidth
        assert np.any(np.abs(spectrum_dac[outside]) > 1e-6)  # DAC spills out of band
        out = lowpass_filter(dac, tones.bandwidth)
        spectrum = np.fft.fft(out.samples)
        total_energy = np.sum(np.abs(spectrum) ** 2)
        outside_energy = np.sum(np.abs(spectrum[outside]) ** 2)
        assert outside_energy < 1e-20 * total_energy

    def test_idempotent_and_linear(self, rng):
        values = rng.normal(size=80) + 1j * rng.normal(size=80)
        other = rng.normal(size=80) + 1j * rng.normal(size=80)
        a = SampledSignal(values, 100e6, SPACING, BASEBAND)
        b = SampledSignal(other, 100e6, SPACING, BASEBAND)
        bw = 10e6
        once = lowpass_filter(a, bw)
        twice = lowpass_filter(once, bw)
        assert_allclose(twice.samples, once.samples, atol=1e-12)
        combined = lowpass_filter(
            SampledSignal(2.0 * values + 3.0 * other, 100e6, SPACING, BASEBAND), bw
        )
        assert_allclose(
            combined.samples,
            2.0 * once.samples + 3.0 * lowpass_filter(b, bw).samples,
            atol=1e-12,
        )


class TestUpconvert:
    def test_dc_becomes_pure_carrier(self):
        sig = SampledSignal(np.ones(4, dtype=complex), 4 * SPACING, SPACING, BASEBAND)
        carrier = 4 * SPACING
        out = upconvert(sig, carrier, 16 * SPACING, bandwidth=0.0)
        assert out.domain == PASSBAND
        expected = np.cos(2.0 * np.pi * carrier * np.arange(16) / (16 * SPACING))
        assert_allclose(out.samples, expected, atol=1e-12)

    def test_zero_passthrough(self):
        sig = SampledSignal(np.zeros(4, dtype=complex), 4 * SPACING, SPACING, BASEBAND)
        out = upconvert(sig, 4 * SPACING, 16 * SPACING, bandwidth=0.0)
        assert np.all(out.samples == 0.0)

    def test_parseval_half_power(self, rng):
        tones = ToneSet(rng.random(8), rng.random(8) * 6.2, SPACING)
        base = synthesize_multitone(tones, 100e6)
        carrier = 64 * SPACING
        sim_rate = default_sim_rate(carrier, tones.bandwidth, SPACING)
        out = upconvert(base, carrier, sim_rate, tones.bandwidth)
        base_power = np.mean(np.abs(base.samples) ** 2)
        pass_power = np.mean(out.samples**2)
        assert_allclose(pass_power, base_power / 2.0, rtol=1e-6)

    def test_nyquist_violation_rejected(self):
        sig = SampledSignal(np.ones(4, dtype=complex), 4 * SPACING, SPACING, BASEBAND)
        with pytest.raises(ConfigurationError):
            upconvert(sig, 4 * SPACING, 8 * SPACING, bandwidth=2 * SPACING)

    def test_non_commensurate_carrier_rejected(self):
        sig = SampledSignal(np.ones(4, dtype=complex), 4 * SPACING, SPACING, BASEBAND)
        with pytest.raises(ConfigurationError):
            upconvert(sig, 4.5 * SPACING, 16 * SPACING, bandwidth=0.0)


class TestRapp:
    def test_small_signal_linear(self):
        sig = SampledSignal(np.array([0.1] * 8), 10e6, SPACING, PASSBAND)
        out = rapp_amplifier(sig, 10.0, 10.0, 4.0)
        assert np.all(np.abs(out.samples - 1.0) < 1e-8)

    def test_deep_saturation_point(self):
        sig = SampledSignal(np.array([10.0] * 8), 10e6, SPACING, PASSBAND)
        out = rapp_amplifier(sig, 10.0, 10.0, 4.0)
        expected = 100.0 * (1.0 + 1e8) ** (-0.125)  # direct-formula evaluation
        assert_allclose(out.samples, expected, rtol=1e-12)
        assert_allclose(out.samples, 9.99999990, rtol=1e-8)

    def test_zero_and_oddness(self, rng):
        values = np.concatenate([[0.0], rng.uniform(-50, 50, 7)])
        sig = SampledSignal(values, 10e6, SPACING, PASSBAND)
        neg = SampledSignal(-values, 10e6, SPACING, PASSBAND)
        out = rapp_amplifier(sig, 10.0, 10.0, 4.0)
        out_neg = rapp_amplifier(neg, 10.0, 10.0, 4.0)
        assert out.samples[0] == 0.0
        assert np.array_equal(out_neg.samples, -out.samples)

    def test_bounded_and_monotone(self):
        grid = np.linspace(0.0, 1e3, 80000)
        sig = SampledSignal(grid[:80000], 80000 * SPACING * 1.0, SPACING, PASSBAND)
        out = rapp_amplifier(sig, 10.0, 10.0, 4.0)
        assert np.all(np.abs(out.samples) < 10.0)
        # the curve is flat to below one ulp deep in saturation
        assert np.all(np.diff(out.samples) >= -1e-12)

    def test_smoothness_below_one_rejected(self):
        sig = SampledSignal(np.zeros(8), 10e6, SPACING, PASSBAND)
        with pytest.raises(DomainError):
            rapp_amplifier(sig, 10.0, 10.0, 0.5)


class TestPhaseShifters:
    def _passband_tone(self, n=160, cycles=40):
        samples = np.cos(2.0 * np.pi * cycles * np.arange(n) / n)
        return SampledSignal(samples, n * SPACING, SPACING, PASSBAND)

    def test_zero_phase_unit_loss_is_exact_identity(self):
        sig = self._passband_tone()
        word = PhaseWord([0], 3)
        (out,) = apply_phase_shifters(sig, word, 1.0).samples
        assert np.array_equal(out, sig.samples)

    def test_one_bit_flip(self):
        sig = self._passband_tone()
        word = PhaseWord([1], 1)
        (out,) = apply_phase_shifters(sig, word, 1.0).samples
        assert_allclose(out, -sig.samples, atol=1e-12)

    def test_amplitude_scale_with_insertion_loss(self):
        sig = self._passband_tone()
        loss = 10.0**0.05  # 0.5 dB
        word = PhaseWord(np.zeros(25, dtype=int), 3)
        branches = apply_phase_shifters(sig, word, loss).samples
        assert len(branches) == 25
        scale = np.max(np.abs(branches[0])) / np.max(np.abs(sig.samples))
        assert_allclose(scale, 0.1888, rtol=1e-3)

    def test_out_of_range_level_rejected(self):
        with pytest.raises(DomainError):
            PhaseWord([8], 3)

    def test_rotation_matches_envelope_math(self):
        n, cycles = 160, 40
        idx = np.arange(n)
        sig = self._passband_tone(n, cycles)
        word = PhaseWord([3], 3)
        (out,) = apply_phase_shifters(sig, word, 1.0).samples
        angle = 2.0 * np.pi * 3 / 8
        expected = np.cos(2.0 * np.pi * cycles * idx / n - angle)
        assert_allclose(out, expected, atol=1e-12)


class TestSampledSignal:
    def test_length_must_cover_one_period(self):
        with pytest.raises(DomainError):
            SampledSignal(np.zeros(7), 10e6, SPACING, BASEBAND)

    def test_passband_must_be_real(self):
        with pytest.raises(DomainError):
            SampledSignal(np.zeros(8, dtype=complex), 10e6, SPACING, PASSBAND)

    def test_unknown_domain_rejected(self):
        with pytest.raises(DomainError):
            SampledSignal(np.zeros(8), 10e6, SPACING, "rf")


def test_default_sim_rate_snaps_up():
    assert default_sim_rate(64 * SPACING, 8 * SPACING, SPACING) == 180 * SPACING
    assert default_sim_rate(5.18e9, 10e6, SPACING) == 10380 * SPACING
    # non-exact target rounds to the next multiple
    assert default_sim_rate(64 * SPACING, 1 * SPACING, SPACING) == 163 * SPACING
