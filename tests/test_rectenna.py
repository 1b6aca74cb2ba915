import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wptsim import ConfigurationError, RectennaParams
from wptsim.rectenna import (
    dc_output_voltage,
    harvest_from_signal,
    harvested_power,
    lambert_w0_log,
    rhs_log_mean,
    solve_rectifier_equation,
)
import reference
from reference import lambert_w0


def sinusoid(amplitude, n=4096):
    return amplitude * np.cos(2.0 * np.pi * np.arange(n) / n)


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
        with pytest.raises(ConfigurationError):
            lambert_w0(-0.1)


# Wright omega: the log-form Lambert W against scipy's wrightomega and mpmath.
# The bound is relative, 4 eps max(1, -x): below 0 the step's residual
# x - w - ln w cancels to about eps |x| of a small w. A subnormal omega, below
# x = -708, keeps only an absolute step of 2^-1074.
EPS = np.finfo(float).eps
OMEGA_EDGES = [
    edge for point in (-745.2, -50.0, -2.0, 1.0, 1e20)
    for edge in (np.nextafter(point, -np.inf), point, np.nextafter(point, np.inf))
]


def assert_omega_close(actual, expected, x):
    bound = 4.0 * EPS * np.maximum(1.0, -np.asarray(x)) * np.abs(expected)
    assert (np.abs(actual - expected) <= np.maximum(bound, 2.0**-1074)).all()


def mpmath_omega(x: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.lambertw(mpmath.exp(mpmath.mpf(x))).real)


class TestWrightOmega:
    @pytest.mark.parametrize(
        "x",
        [-745.2, -744.0, -700.0, -100.0, -50.0, -49.9, -20.0, -2.0, -1.9, -0.5, 0.0,
         0.5, 1.0, 1.5, 10.0, 700.0, 1e4, 1e10, 1e20, 1e21, 1e300],
    )
    def test_against_40_digit_mpmath(self, x):
        assert_omega_close(lambert_w0_log(x), mpmath_omega(x), x)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.one_of(
            st.floats(-1e3, 1e300),
            st.floats(-60.0, 5.0),
            st.sampled_from(OMEGA_EDGES),
        )
    )
    def test_against_scipy(self, x):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            actual = lambert_w0_log(x)
        assert_omega_close(actual, scipy.special.wrightomega(x), x)

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(-1e308, -745.2))
    def test_underflows_to_zero_without_a_warning(self, x):
        with np.errstate(all="raise", under="ignore"):
            assert lambert_w0_log(x) == 0.0
            assert (lambert_w0_log(np.array([x, x])) == 0.0).all()

    def test_non_finite(self):
        x = np.array([np.inf, -np.inf, np.nan])
        for actual in (lambert_w0_log(x), [lambert_w0_log(v) for v in x]):
            assert np.array_equal(actual, [np.inf, 0.0, np.nan], equal_nan=True)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.lists(
            st.one_of(st.floats(allow_nan=True), st.floats(-60.0, 5.0), st.sampled_from(OMEGA_EDGES)),
            min_size=1, max_size=8,
        )
    )
    def test_one_value_equals_its_array_entry(self, x):
        # a serial evaluation's harvest must equal its row of a batch, bit for bit
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            whole = lambert_w0_log(np.array(x))
            one = [lambert_w0_log(v) for v in x]
        assert np.array_equal(whole, one, equal_nan=True)
        assert all(type(w) is np.float64 for w in one)


def bessel_log_mean(amplitude):
    """log I0(z) at the rectenna's exponent z = sqrt(R_s) A / (eta V_0)."""
    z = np.sqrt(50.0) * amplitude / (1.05 * 25.86e-3)
    return z + np.log(scipy.special.ive(0, z))


class TestRhsLogMean:
    def test_zero_signal(self, rectenna_params):
        assert rhs_log_mean(np.zeros(64, dtype=complex), rectenna_params) == 0.0
        assert reference.rhs_log_mean(np.zeros(64), rectenna_params) == 0.0

    def test_constant_signal(self, rectenna_params):
        c = 0.05
        # a constant passband voltage gives the plain exponent; a constant
        # envelope is a carrier of amplitude c, whose cycle mean is I0
        expected = np.sqrt(50.0) * c / (1.05 * 25.86e-3)
        passband = reference.rhs_log_mean(np.full(64, c), rectenna_params)
        assert_allclose(passband, expected, rtol=1e-12)
        envelope = np.full(64, c * np.exp(0.3j))
        assert_allclose(rhs_log_mean(envelope, rectenna_params), bessel_log_mean(c), rtol=1e-14)

    def test_sinusoid_matches_bessel(self, rectenna_params):
        # periodic mean of exp(z cos) is the order-zero modified Bessel function:
        # the passband reference's sample mean, and the library's envelope form
        for amplitude in np.linspace(1e-3, 1.0, 8):
            expected = bessel_log_mean(amplitude)
            got = reference.rhs_log_mean(sinusoid(amplitude), rectenna_params)
            assert_allclose(got, expected, rtol=1e-6)
            envelope = np.full(16, amplitude + 0j)
            assert_allclose(rhs_log_mean(envelope, rectenna_params), expected, rtol=1e-13)

    def test_overflow_safe_at_hot_drive(self, rectenna_params):
        # sqrt(Rs) * |r| = 100 V puts the exponent near 3.9e3
        amplitude = 100.0 / np.sqrt(50.0)
        value = reference.rhs_log_mean(sinusoid(amplitude), rectenna_params)
        assert np.isfinite(value)
        assert value > 3.5e3
        envelope = amplitude * np.exp(2j * np.pi * np.arange(64) / 64) * np.linspace(0, 1, 64)
        value = rhs_log_mean(envelope, rectenna_params)
        assert np.isfinite(value)
        assert value > 3.5e3

    def test_complex_input_rejected(self, rectenna_params):
        # the passband reference takes real samples only
        with pytest.raises(ConfigurationError):
            reference.rhs_log_mean(np.zeros(8, dtype=complex), rectenna_params)


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


class TestRootSolverOracle:
    def test_zero_drive(self, rectenna_params):
        assert abs(solve_rectifier_equation(0.0, rectenna_params)) <= 1e-12

    def test_monotone(self, rectenna_params):
        roots = [solve_rectifier_equation(r, rectenna_params) for r in (0.0, 1.0, 5.0, 20.0)]
        assert all(b > a for a, b in zip(roots, roots[1:]))

    def test_rhs_log_must_be_finite(self, rectenna_params):
        with pytest.raises(ConfigurationError):
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
        result = harvest_from_signal(samples, rectenna_params)
        assert result.rhs_log >= 0.0
        assert result.v_out_dc >= -1e-12

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            RectennaParams(50.0, 1600.0, 5e-6, 25.86e-3, 0.9)
        with pytest.raises(ConfigurationError):
            RectennaParams(-50.0, 1600.0, 5e-6, 25.86e-3, 1.05)
