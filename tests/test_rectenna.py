import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from wptsim import (
    DomainError,
    PASSBAND,
    RectennaParams,
    SampledSignal,
    dc_output_voltage,
    harvest_from_signal,
    harvested_power,
    lambert_w0,
    lambert_w0_log,
    rhs_log_mean,
    solve_rectifier_equation,
)

SPACING = 1.25e6


def real_signal(samples, rate):
    return SampledSignal(np.asarray(samples, dtype=float), rate, SPACING, PASSBAND)


def sinusoid(amplitude, n=4096):
    rate = n * SPACING
    return real_signal(amplitude * np.cos(2.0 * np.pi * np.arange(n) / n), rate)


class TestLambertW:
    def test_anchor_points(self):
        assert lambert_w0(0.0) == 0.0
        assert abs(lambert_w0(np.e) - 1.0) <= 1e-14

    def test_defining_identity_across_range(self):
        for x in np.logspace(-6, 300, 500):
            w = lambert_w0(x)
            assert abs(w * np.exp(w) - x) <= 1e-12 * x

    def test_against_scipy(self):
        for x in np.logspace(-6, 100, 200):
            expected = float(scipy.special.lambertw(x).real)
            assert_allclose(lambert_w0(x), expected, rtol=1e-12)

    def test_log_form_far_beyond_overflow(self):
        log_xs = np.concatenate([
            np.linspace(10.0, 1e4, 200),
            np.linspace(-700.0, 10.0, 200),
            np.linspace(1e4, 1e6, 200),
        ])
        for log_x in log_xs:
            w = lambert_w0_log(log_x)
            # residual of w + ln w = ln x, the log-domain defining identity
            assert abs(w + np.log(w) - log_x) <= 1e-12 * max(1.0, abs(log_x))

    def test_log_form_matches_direct_form(self):
        for x in (0.5, 2.0, 50.0, 1e8):
            assert_allclose(lambert_w0_log(np.log(x)), lambert_w0(x), rtol=1e-13)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            lambert_w0(-0.1)


class TestRhsLogMean:
    def test_zero_signal(self, rectenna_params):
        sig = real_signal(np.zeros(64), 64 * SPACING)
        assert rhs_log_mean(sig, rectenna_params) == 0.0

    def test_constant_signal(self, rectenna_params):
        c = 0.05
        sig = real_signal(np.full(64, c), 64 * SPACING)
        expected = np.sqrt(50.0) * c / (1.05 * 25.86e-3)
        assert_allclose(rhs_log_mean(sig, rectenna_params), expected, rtol=1e-12)

    def test_sinusoid_matches_bessel(self, rectenna_params):
        # periodic mean of exp(z cos) is the order-zero modified Bessel function
        for amplitude in np.linspace(1e-3, 1.0, 8):
            z = np.sqrt(50.0) * amplitude / (1.05 * 25.86e-3)
            expected = z + np.log(scipy.special.ive(0, z))
            got = rhs_log_mean(sinusoid(amplitude), rectenna_params)
            assert_allclose(got, expected, rtol=1e-6)

    def test_overflow_safe_at_hot_drive(self, rectenna_params):
        # sqrt(Rs) * |r| = 100 V puts the exponent near 3.9e3
        amplitude = 100.0 / np.sqrt(50.0)
        value = rhs_log_mean(sinusoid(amplitude), rectenna_params)
        assert np.isfinite(value)
        assert value > 3.5e3

    def test_complex_input_rejected(self, rectenna_params):
        sig = SampledSignal(np.zeros(8, dtype=complex), 10e6, SPACING, "baseband-complex")
        with pytest.raises(DomainError):
            rhs_log_mean(sig, rectenna_params)


class TestDcOutputVoltage:
    def test_zero_drive_balances_at_zero(self, rectenna_params):
        assert abs(dc_output_voltage(0.0, rectenna_params)) <= 1e-12

    def test_load_constant_value(self, rectenna_params):
        assert_allclose(rectenna_params.load_constant, 0.29463, rtol=1e-4)

    def test_matches_root_solver(self, rectenna_params, rng):
        for rhs_log in rng.uniform(0.0, 100.0, 200):
            closed = dc_output_voltage(rhs_log, rectenna_params)
            oracle = solve_rectifier_equation(rhs_log, rectenna_params)
            assert abs(closed - oracle) <= 1e-9

    def test_monotone_in_drive(self, rectenna_params):
        values = [dc_output_voltage(r, rectenna_params) for r in np.linspace(0.0, 50.0, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_finite_at_extreme_drive(self, rectenna_params):
        v = dc_output_voltage(3.9e3, rectenna_params)
        assert np.isfinite(v)
        assert v > 0


class TestHarvestedPower:
    def test_zero(self):
        assert harvested_power(0.0, 1600.0) == 0.0

    def test_spec_operating_point(self):
        assert_allclose(harvested_power(0.17889, 1600.0), 20e-6, rtol=1e-4)

    def test_quadratic_law(self):
        assert harvested_power(0.4, 1600.0) == pytest.approx(4 * harvested_power(0.2, 1600.0))

    def test_bad_load_rejected(self):
        with pytest.raises(DomainError):
            harvested_power(1.0, 0.0)


class TestRootSolverOracle:
    def test_zero_drive(self, rectenna_params):
        assert abs(solve_rectifier_equation(0.0, rectenna_params)) <= 1e-12

    def test_monotone(self, rectenna_params):
        roots = [solve_rectifier_equation(r, rectenna_params) for r in (0.0, 1.0, 5.0, 20.0)]
        assert all(b > a for a, b in zip(roots, roots[1:]))

    def test_rhs_log_must_be_finite(self, rectenna_params):
        with pytest.raises(DomainError):
            solve_rectifier_equation(np.inf, rectenna_params)


class TestHarvestPipeline:
    def test_scaling_never_decreases_voltage(self, rectenna_params):
        results = [
            harvest_from_signal(sinusoid(a), rectenna_params).v_out_dc
            for a in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(b >= a for a, b in zip(results, results[1:]))

    def test_power_voltage_consistency(self, rectenna_params):
        result = harvest_from_signal(sinusoid(0.2), rectenna_params)
        assert_allclose(result.p_out_dc, result.v_out_dc**2 / 1600.0, rtol=1e-15)

    def test_nonnegative_for_zero_mean_input(self, rectenna_params, rng):
        n = 256
        spectrum = np.zeros(n, dtype=complex)
        bins = rng.integers(40, 80, 5)
        spectrum[bins] = rng.normal(size=5) + 1j * rng.normal(size=5)
        samples = np.fft.irfft(np.concatenate([spectrum, np.zeros(1)]), n=2 * n)
        sig = real_signal(samples, 2 * n * SPACING)
        result = harvest_from_signal(sig, rectenna_params)
        assert result.rhs_log >= 0.0
        assert result.v_out_dc >= -1e-12

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            RectennaParams(50.0, 1600.0, 5e-6, 25.86e-3, 0.9)
        with pytest.raises(DomainError):
            RectennaParams(-50.0, 1600.0, 5e-6, 25.86e-3, 1.05)
