import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.constants import speed_of_light

from wptsim import (
    BASEBAND,
    PASSBAND,
    DomainError,
    ReceiverPosition,
    SampledSignal,
    build_channel_matrix,
    channel_coefficient,
    element_positions,
    radiation_profile,
    received_signal,
)

SPACING = 1.25e6
CARRIER_RF = 5.18e9


class _ConstantChannel:
    """Stand-in channel with a fixed gain on every element and frequency."""

    def __init__(self, count, gain=1.0, carrier=CARRIER_RF):
        self.count = count
        self.gain = gain
        self.carrier = carrier

    def coefficients_at(self, frequencies):
        freqs = np.atleast_1d(frequencies)
        return np.full((self.count, freqs.size), self.gain, dtype=complex)


class _OneElement:
    """One row of a channel, as a channel of its own."""

    def __init__(self, parent, index):
        self.parent, self.index = parent, index
        self.count, self.carrier = 1, parent.carrier

    def coefficients_at(self, freqs):
        return self.parent.coefficients_at(freqs)[self.index : self.index + 1]


def passband_tone(carrier_bins, n, rate):
    samples = np.cos(2.0 * np.pi * carrier_bins * np.arange(n) / n)
    return SampledSignal(samples, rate, SPACING, PASSBAND)


def stack(*signals):
    """Element branches as one (N, n) stack."""
    first = signals[0]
    rows = np.vstack([sig.samples for sig in signals])
    return SampledSignal(rows, first.sample_rate, SPACING, first.domain)


class TestGeometry:
    def test_single_element_at_origin(self):
        geom = element_positions(1, 1, CARRIER_RF)
        assert geom.count == 1
        assert np.all(geom.positions == 0.0)

    def test_neighbor_spacing_is_half_wavelength(self):
        geom = element_positions(2, 2, CARRIER_RF)
        assert_allclose(geom.spacing, 0.02894, rtol=1e-3)
        deltas = np.linalg.norm(geom.positions[1] - geom.positions[0])
        assert_allclose(deltas, 0.5 * speed_of_light / CARRIER_RF, rtol=1e-12)

    def test_centroid_at_origin(self):
        geom = element_positions(5, 5, CARRIER_RF)
        assert_allclose(geom.positions.mean(axis=0), 0.0, atol=1e-18)

    def test_elements_in_xz_plane(self):
        geom = element_positions(3, 4, CARRIER_RF)
        assert np.all(geom.positions[:, 1] == 0.0)
        assert geom.count == 12

    def test_invalid_shape_rejected(self):
        with pytest.raises(DomainError):
            element_positions(0, 3, CARRIER_RF)


class TestRadiationProfile:
    def test_boresight_value(self):
        assert radiation_profile(0.0, 2.0) == 6.0

    def test_edge_of_halfspace_is_zero(self):
        for exponent in (0.0, 1.0, 2.0, 5.0):
            assert radiation_profile(np.pi / 2, exponent) == 0.0
        assert radiation_profile(2.0, 2.0) == 0.0

    def test_sixty_degrees(self):
        assert_allclose(radiation_profile(np.pi / 3, 2.0), 1.5, rtol=1e-12)

    def test_vectorized(self):
        thetas = np.array([0.0, np.pi / 3, np.pi / 2, 3.0])
        assert_allclose(radiation_profile(thetas, 2.0), [6.0, 1.5, 0.0, 0.0], rtol=1e-12)


class TestChannelCoefficient:
    def test_boresight_magnitude(self):
        geom = element_positions(1, 1, CARRIER_RF)
        er = ReceiverPosition(0.0, 3.0, 0.0)
        h = channel_coefficient(geom, er, 0, SPACING, boresight_exponent=2.0)
        assert_allclose(abs(h[0]), 3.761e-3, rtol=1e-3)

    def test_sideways_receiver_sees_nothing(self):
        geom = element_positions(1, 1, CARRIER_RF)
        er = ReceiverPosition(3.0, 0.0, 0.0)  # exactly in the array plane
        h = channel_coefficient(geom, er, 0, SPACING)
        assert h[0] == 0.0

    def test_phase_wraps_at_integer_wavelengths(self):
        geom = element_positions(1, 1, CARRIER_RF)
        wavelength = speed_of_light / CARRIER_RF
        er = ReceiverPosition(0.0, wavelength, 0.0)
        h = channel_coefficient(geom, er, 0, SPACING)
        assert_allclose(h[0].imag, 0.0, atol=1e-12)
        assert h[0].real > 0

    def test_tone_wavelength_shifts_with_index(self):
        geom = element_positions(1, 1, CARRIER_RF)
        er = ReceiverPosition(0.0, 3.0, 0.0)
        h0 = channel_coefficient(geom, er, 0, SPACING)
        h4 = channel_coefficient(geom, er, 4, SPACING)
        ratio = abs(h4[0]) / abs(h0[0])
        assert_allclose(ratio, CARRIER_RF / (CARRIER_RF + 4 * SPACING), rtol=1e-12)

    def test_path_loss_monotone_in_distance(self):
        geom = element_positions(1, 1, CARRIER_RF)
        gains = [
            abs(channel_coefficient(geom, ReceiverPosition(0.0, d, 0.0), 0, SPACING)[0])
            for d in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_magnitude_depends_only_on_distance_and_angle(self):
        geom = element_positions(1, 1, CARRIER_RF)
        left = channel_coefficient(geom, ReceiverPosition(-1.0, 2.0, 0.0), 0, SPACING)
        right = channel_coefficient(geom, ReceiverPosition(1.0, 2.0, 0.0), 0, SPACING)
        up = channel_coefficient(geom, ReceiverPosition(0.0, 2.0, 1.0), 0, SPACING)
        assert_allclose(abs(left[0]), abs(right[0]), rtol=1e-12)
        assert_allclose(abs(left[0]), abs(up[0]), rtol=1e-12)

    def test_receiver_on_element_rejected(self):
        geom = element_positions(1, 1, CARRIER_RF)
        with pytest.raises(DomainError):
            build_channel_matrix(geom, ReceiverPosition(0.0, 0.0, 0.0), 1, SPACING)

    def test_table_geometry_gains_are_small(self):
        geom = element_positions(5, 5, CARRIER_RF)
        matrix = build_channel_matrix(geom, ReceiverPosition(0.0, 3.0, 0.0), 8, SPACING)
        assert np.all(np.abs(matrix.tone_coefficients) < 1e-2)
        assert np.all(np.abs(matrix.tone_coefficients) > 0.0)


class TestReceivedSignal:
    RATE = 180 * SPACING
    N_SAMP = 180
    CARRIER_SIM = 64 * SPACING

    def test_identity_channel_passthrough(self):
        sig = passband_tone(64, self.N_SAMP, self.RATE)
        channel = _ConstantChannel(1)
        out = received_signal(stack(sig), channel, self.CARRIER_SIM, 8 * SPACING)
        assert_allclose(out.samples, sig.samples, atol=1e-12)

    def test_zero_channel(self):
        sig = passband_tone(64, self.N_SAMP, self.RATE)
        channel = _ConstantChannel(1, gain=0.0)
        out = received_signal(stack(sig), channel, self.CARRIER_SIM, 8 * SPACING)
        assert np.all(out.samples == 0.0)

    def test_coherent_pair_doubles_amplitude(self):
        sig = passband_tone(64, self.N_SAMP, self.RATE)
        single = received_signal(stack(sig), _ConstantChannel(1), self.CARRIER_SIM, 8 * SPACING)
        pair = received_signal(stack(sig, sig), _ConstantChannel(2), self.CARRIER_SIM, 8 * SPACING)
        assert_allclose(pair.samples, 2.0 * single.samples, atol=1e-12)

    def test_superposition_oracle(self, rng):
        # propagate each element separately and sum; must match the joint call
        geom = element_positions(1, 2, CARRIER_RF)
        er = ReceiverPosition(0.2, 2.5, -0.1)
        channel = build_channel_matrix(geom, er, 8, SPACING)
        sig_a = passband_tone(64, self.N_SAMP, self.RATE)
        noise = rng.normal(size=self.N_SAMP)
        sig_b = SampledSignal(noise, self.RATE, SPACING, PASSBAND)
        joint = received_signal(stack(sig_a, sig_b), channel, self.CARRIER_SIM, 8 * SPACING)

        parts = [
            received_signal(stack(sig), _OneElement(channel, i), self.CARRIER_SIM, 8 * SPACING)
            for i, sig in enumerate([sig_a, sig_b])
        ]
        assert_allclose(joint.samples, parts[0].samples + parts[1].samples, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 2),
        cols=st.integers(1, 3),
        position=st.tuples(
            st.floats(-1.0, 1.0), st.floats(0.3, 5.0), st.floats(-1.0, 1.0)
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_sum_of_rows(self, rows, cols, position, seed):
        # generalises the superposition oracle to random stacks and receivers
        geom = element_positions(rows, cols, CARRIER_RF)
        channel = build_channel_matrix(geom, ReceiverPosition(*position), 8, SPACING)
        samples = np.random.default_rng(seed).normal(size=(geom.count, self.N_SAMP))
        joint = received_signal(
            SampledSignal(samples, self.RATE, SPACING, PASSBAND),
            channel, self.CARRIER_SIM, 8 * SPACING,
        ).samples
        parts = sum(
            received_signal(
                SampledSignal(row[None, :], self.RATE, SPACING, PASSBAND),
                _OneElement(channel, i), self.CARRIER_SIM, 8 * SPACING,
            ).samples
            for i, row in enumerate(samples)
        )
        assert_allclose(joint, parts, rtol=0, atol=1e-12 * np.max(np.abs(parts)))

    def test_linearity_in_signals(self, rng):
        geom = element_positions(1, 1, CARRIER_RF)
        channel = build_channel_matrix(geom, ReceiverPosition(0.0, 3.0, 0.0), 8, SPACING)
        a = rng.normal(size=self.N_SAMP)
        b = rng.normal(size=self.N_SAMP)
        mix = SampledSignal(2.0 * a + 0.5 * b, self.RATE, SPACING, PASSBAND)
        out_mix = received_signal(stack(mix), channel, self.CARRIER_SIM, 8 * SPACING)
        out_a = received_signal(
            stack(SampledSignal(a, self.RATE, SPACING, PASSBAND)),
            channel, self.CARRIER_SIM, 8 * SPACING,
        )
        out_b = received_signal(
            stack(SampledSignal(b, self.RATE, SPACING, PASSBAND)),
            channel, self.CARRIER_SIM, 8 * SPACING,
        )
        assert_allclose(
            out_mix.samples, 2.0 * out_a.samples + 0.5 * out_b.samples, atol=1e-10
        )

    def test_out_of_band_content_rejected(self):
        in_band = passband_tone(64, self.N_SAMP, self.RATE)
        out_band = passband_tone(30, self.N_SAMP, self.RATE)
        total = SampledSignal(
            in_band.samples + out_band.samples, self.RATE, SPACING, PASSBAND
        )
        out = received_signal(stack(total), _ConstantChannel(1), self.CARRIER_SIM, 8 * SPACING)
        assert_allclose(out.samples, in_band.samples, atol=1e-12)

    def test_mismatched_lengths_rejected(self):
        # every row of a stack holds one period at its rate: half-period rows are refused
        short = passband_tone(16, 90, 90 * SPACING)
        with pytest.raises(DomainError):
            received_signal(
                SampledSignal(np.vstack([short.samples] * 2), self.RATE, SPACING, PASSBAND),
                _ConstantChannel(2), self.CARRIER_SIM, 8 * SPACING,
            )

    def test_wrong_element_count_rejected(self):
        sig = passband_tone(64, self.N_SAMP, self.RATE)
        with pytest.raises(DomainError):
            received_signal(stack(sig), _ConstantChannel(2), self.CARRIER_SIM, 8 * SPACING)
        # a single waveform is not a stack, even for a one-element channel
        with pytest.raises(DomainError):
            received_signal(sig, _ConstantChannel(1), self.CARRIER_SIM, 8 * SPACING)

    def test_baseband_branch_rejected(self):
        sig = SampledSignal(np.zeros(self.N_SAMP, dtype=complex), self.RATE, SPACING, BASEBAND)
        with pytest.raises(DomainError):
            received_signal(stack(sig), _ConstantChannel(1), self.CARRIER_SIM, 8 * SPACING)
