import numpy as np
import pytest
from numpy.testing import assert_allclose

from wptsim import ConfigurationError, PowerBreakdown, ToneSet
import reference
from reference import rapp_amplifier
from wptsim.power_model import dac_power, hpa_power, signal_power, total_power

SPACING = 1.25e6


class TestDacPower:
    def test_table_point_three_bits(self, power_params):
        assert_allclose(dac_power(3, 100e6, power_params), 1.455e-3, rtol=1e-15)

    def test_table_point_one_bit(self, power_params):
        assert_allclose(dac_power(1, 100e6, power_params), 465e-6, rtol=1e-15)

    def test_monotone_in_bits_and_rate(self, power_params):
        values = [dac_power(b, 100e6, power_params) for b in range(1, 13)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert dac_power(3, 200e6, power_params) > dac_power(3, 100e6, power_params)


class TestHpaPower:
    # the passband reference takes sample means; the library takes the means
    def test_identical_signals_cancel(self):
        sig = np.linspace(-1, 1, 80)
        assert reference.hpa_power(sig, sig, 1.0, 1.0) == 0.0
        assert hpa_power(0.3, 0.3, 1.0, 1.0) == 0.0

    def test_zero_input(self):
        sig = np.zeros(80)
        assert reference.hpa_power(sig, sig, 1.0, 1.0) == 0.0
        assert hpa_power(0.0, 0.0, 1.0, 1.0) == 0.0

    def test_small_signal_gain_squared(self):
        # linear regime: output power is G^2 x input power, so the difference
        # is (G^2 - 1) * P_in
        peak = 0.01 * 10.0 / 10.0  # 0.01 * A_s / G
        x = peak * np.cos(2.0 * np.pi * np.arange(80) * 8 / 80)
        y = rapp_amplifier(x, 10.0, 10.0, 4.0)
        p_in = np.mean(x**2)
        assert_allclose(reference.hpa_power(x, y, 1.0, 1.0), 99.0 * p_in, rtol=1e-3)
        assert_allclose(hpa_power(p_in, np.mean(y**2), 1.0, 1.0), 99.0 * p_in, rtol=1e-3)
        # each port's own resistance
        assert hpa_power(2.0, 8.0, 4.0, 2.0) == 3.5

    def test_nonnegative_for_random_drives(self, rng):
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, 80)
            y = rapp_amplifier(x, 10.0, 10.0, 4.0)
            assert reference.hpa_power(x, y, 1.0, 1.0) >= 0.0
            assert hpa_power(np.mean(x**2), np.mean(y**2), 1.0, 1.0) >= 0.0

    def test_mismatched_signals_rejected(self):
        a = np.zeros(80)
        b = np.zeros(160)
        with pytest.raises(ConfigurationError):
            reference.hpa_power(a, b, 1.0, 1.0)


class TestSignalPower:
    def test_zero(self):
        assert signal_power(ToneSet([0.0, 0.0], [0.0, 0.0], SPACING).amplitudes) == 0.0

    def test_two_unit_tones(self):
        assert signal_power(ToneSet([1.0, 1.0], [0.0, 0.0], SPACING).amplitudes) == 1.0

    def test_eight_tones_at_max(self):
        tones = ToneSet(np.full(8, 300.0), np.zeros(8), SPACING)
        assert signal_power(tones.amplitudes) == 90000.0


class TestTotalPower:
    def test_zero_waveform_floor(self, power_params):
        tones = ToneSet(np.zeros(8), np.zeros(8), SPACING)
        breakdown = total_power(tones.amplitudes, 0.0, 0.0, 3, 100e6, power_params)
        assert_allclose(breakdown.p_total, 29.455e-3, rtol=1e-12)
        assert breakdown.p_hpa == 0.0
        assert breakdown.p_s == 0.0
        assert not breakdown.hpa_negative

    def test_total_is_exact_sum(self, power_params, rng):
        tones = ToneSet(rng.random(8), np.zeros(8), SPACING)
        x = rng.uniform(-1, 1, 80)
        y = rapp_amplifier(x, 10.0, 10.0, 4.0)
        b = total_power(tones.amplitudes, np.mean(x**2), np.mean(y**2), 3, 100e6, power_params)
        assert b.p_total == b.p_dac + b.p_mix + b.p_lo + b.p_hpa + b.p_s

    def test_negative_hpa_flagged(self):
        b = PowerBreakdown(0.0, 0.0, 0.0, -0.5, 0.0)
        assert b.hpa_negative
