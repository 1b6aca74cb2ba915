import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.constants import speed_of_light

from wptsim import ConfigurationError, PhaseWord, ReceiverPosition, element_positions
from conftest import received_envelope
import reference
from reference import apply_phase_shifters, passband_receive_band, received_signal
from wptsim.channel import build_channel_matrix, radiation_profile

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


def tone_gain(geometry, receiver, tone_index, boresight_exponent=2.0):
    """Per-element channel at tone k, carrier + k tone spacings."""
    channel = build_channel_matrix(geometry, receiver, boresight_exponent)
    return channel.coefficients_at(geometry.carrier + tone_index * SPACING)[:, 0]


def passband_tone(carrier_bins, n):
    return np.cos(2.0 * np.pi * carrier_bins * np.arange(n) / n)


def stack(*signals):
    """Element branches as one (N, n) stack."""
    return np.vstack(signals)


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
        with pytest.raises(ConfigurationError):
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
        h = tone_gain(geom, er, 0, boresight_exponent=2.0)
        assert_allclose(abs(h[0]), 3.761e-3, rtol=1e-3)

    def test_sideways_receiver_sees_nothing(self):
        geom = element_positions(1, 1, CARRIER_RF)
        er = ReceiverPosition(3.0, 0.0, 0.0)  # exactly in the array plane
        h = tone_gain(geom, er, 0)
        assert h[0] == 0.0

    def test_phase_wraps_at_integer_wavelengths(self):
        geom = element_positions(1, 1, CARRIER_RF)
        wavelength = speed_of_light / CARRIER_RF
        er = ReceiverPosition(0.0, wavelength, 0.0)
        h = tone_gain(geom, er, 0)
        assert_allclose(h[0].imag, 0.0, atol=1e-12)
        assert h[0].real > 0

    def test_tone_wavelength_shifts_with_index(self):
        geom = element_positions(1, 1, CARRIER_RF)
        er = ReceiverPosition(0.0, 3.0, 0.0)
        h0 = tone_gain(geom, er, 0)
        h4 = tone_gain(geom, er, 4)
        ratio = abs(h4[0]) / abs(h0[0])
        assert_allclose(ratio, CARRIER_RF / (CARRIER_RF + 4 * SPACING), rtol=1e-12)

    def test_path_loss_monotone_in_distance(self):
        geom = element_positions(1, 1, CARRIER_RF)
        gains = [
            abs(tone_gain(geom, ReceiverPosition(0.0, d, 0.0), 0)[0])
            for d in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_magnitude_depends_only_on_distance_and_angle(self):
        geom = element_positions(1, 1, CARRIER_RF)
        left = tone_gain(geom, ReceiverPosition(-1.0, 2.0, 0.0), 0)
        right = tone_gain(geom, ReceiverPosition(1.0, 2.0, 0.0), 0)
        up = tone_gain(geom, ReceiverPosition(0.0, 2.0, 1.0), 0)
        assert_allclose(abs(left[0]), abs(right[0]), rtol=1e-12)
        assert_allclose(abs(left[0]), abs(up[0]), rtol=1e-12)

    def test_receiver_on_element_rejected(self):
        geom = element_positions(1, 1, CARRIER_RF)
        with pytest.raises(ConfigurationError):
            build_channel_matrix(geom, ReceiverPosition(0.0, 0.0, 0.0), 2.0)

    def test_table_geometry_gains_are_small(self):
        geom = element_positions(5, 5, CARRIER_RF)
        matrix = build_channel_matrix(geom, ReceiverPosition(0.0, 3.0, 0.0), 2.0)
        gains = matrix.coefficients_at(CARRIER_RF + np.arange(8) * SPACING)
        assert np.all(np.abs(gains) < 1e-2)
        assert np.all(np.abs(gains) > 0.0)


class TestReceivedSignal:
    N_SAMP = 180
    CARRIER_BIN = 64

    def received(self, elements, channel):
        """received_signal over the receive band of `channel` on the 180-sample period."""
        band, coefficients = passband_receive_band(channel, self.CARRIER_BIN, 8, SPACING)
        return received_signal(elements, band, coefficients)

    def test_identity_channel_passthrough(self):
        sig = passband_tone(64, self.N_SAMP)
        out = self.received(stack(sig), _ConstantChannel(1))
        assert_allclose(out, sig, atol=1e-12)

    def test_zero_channel(self):
        sig = passband_tone(64, self.N_SAMP)
        out = self.received(stack(sig), _ConstantChannel(1, gain=0.0))
        assert np.all(out == 0.0)

    def test_coherent_pair_doubles_amplitude(self):
        sig = passband_tone(64, self.N_SAMP)
        single = self.received(stack(sig), _ConstantChannel(1))
        pair = self.received(stack(sig, sig), _ConstantChannel(2))
        assert_allclose(pair, 2.0 * single, atol=1e-12)

    def test_superposition_oracle(self, rng):
        # propagate each element separately and sum; must match the joint call
        geom = element_positions(1, 2, CARRIER_RF)
        er = ReceiverPosition(0.2, 2.5, -0.1)
        channel = build_channel_matrix(geom, er, 2.0)
        sig_a = passband_tone(64, self.N_SAMP)
        sig_b = rng.normal(size=self.N_SAMP)
        joint = self.received(stack(sig_a, sig_b), channel)

        parts = [
            self.received(stack(sig), _OneElement(channel, i))
            for i, sig in enumerate([sig_a, sig_b])
        ]
        assert_allclose(joint, parts[0] + parts[1], atol=1e-10)

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
        channel = build_channel_matrix(geom, ReceiverPosition(*position), 2.0)
        samples = np.random.default_rng(seed).normal(size=(geom.count, self.N_SAMP))
        joint = self.received(samples, channel)
        parts = sum(
            self.received(row[None, :], _OneElement(channel, i))
            for i, row in enumerate(samples)
        )
        assert_allclose(joint, parts, rtol=0, atol=1e-12 * np.max(np.abs(parts)))

    def test_linearity_in_signals(self, rng):
        geom = element_positions(1, 1, CARRIER_RF)
        channel = build_channel_matrix(geom, ReceiverPosition(0.0, 3.0, 0.0), 2.0)
        a = rng.normal(size=self.N_SAMP)
        b = rng.normal(size=self.N_SAMP)
        out_mix = self.received(stack(2.0 * a + 0.5 * b), channel)
        out_a = self.received(stack(a), channel)
        out_b = self.received(stack(b), channel)
        assert_allclose(out_mix, 2.0 * out_a + 0.5 * out_b, atol=1e-10)

    def test_out_of_band_content_rejected(self):
        in_band = passband_tone(64, self.N_SAMP)
        out_band = passband_tone(30, self.N_SAMP)
        out = self.received(stack(in_band + out_band), _ConstantChannel(1))
        assert_allclose(out, in_band, atol=1e-12)

    def test_wrong_element_count_rejected(self):
        sig = passband_tone(64, self.N_SAMP)
        with pytest.raises(ConfigurationError):
            self.received(stack(sig), _ConstantChannel(2))
        # a single waveform is not a stack, even for a one-element channel
        with pytest.raises(ConfigurationError):
            self.received(sig, _ConstantChannel(1))

    def test_baseband_branch_rejected(self):
        sig = np.zeros(self.N_SAMP, dtype=complex)
        with pytest.raises(ConfigurationError):
            self.received(stack(sig), _ConstantChannel(1))

    def test_band_outside_the_period_rejected(self):
        # a 4-bin carrier puts the band's first bins below DC, where numpy
        # indexing would wrap to the top of the spectrum
        band, coefficients = passband_receive_band(_ConstantChannel(1), 4, 8, SPACING)
        sig = stack(passband_tone(4, self.N_SAMP))
        with pytest.raises(ConfigurationError):
            received_signal(sig, band, coefficients)
        band, coefficients = passband_receive_band(_ConstantChannel(1), 64, 8, SPACING)
        with pytest.raises(ConfigurationError):
            received_signal(sig[:, :142], band, coefficients)


class TestBeamformedReceived:
    N_SAMP = 180
    CARRIER_BIN = 64

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        position=st.tuples(
            st.floats(-1.0, 1.0), st.floats(0.3, 5.0), st.floats(-1.0, 1.0)
        ),
        tones=st.integers(1, 8),
        bits=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fold_equals_explicit_branches(self, rows, cols, position, tones, bits, seed):
        # a random real period (energy in every bin), carrier bin and length
        # strictly above Nyquist, word, insertion loss, array and receiver
        rng = np.random.default_rng(seed)
        carrier_bins = int(rng.integers(tones + 1, 65))
        n = 2 * (carrier_bins + tones) + int(rng.integers(1, 41))
        geom = element_positions(rows, cols, CARRIER_RF)
        channel = build_channel_matrix(geom, ReceiverPosition(*position), 2.0)
        period = rng.normal(size=n)
        word = PhaseWord(rng.integers(0, 2**bits, geom.count), bits)
        loss = float(rng.uniform(1.0, 4.0))
        band, coefficients = passband_receive_band(channel, carrier_bins, tones, SPACING)
        fold = reference.beamformed_received(period, word, loss, band, coefficients)
        branches = apply_phase_shifters(period, word, loss)
        explicit = received_signal(branches, band, coefficients)
        # the scale is the peak of the summed magnitudes of the N element
        # contributions, which a beam that cancels at the receiver keeps
        parts = np.zeros((geom.count, n // 2 + 1), dtype=complex)
        parts[:, band] = coefficients * np.fft.rfft(branches, axis=1)[:, band]
        peak = np.max(np.sum(np.abs(np.fft.irfft(parts, n=n, axis=1)), axis=0))
        assert_allclose(fold, explicit, rtol=0, atol=1e-12 * peak)
        # the library's fold on a random complex envelope, against its N
        # branches s e^{-j theta_i} y, each through its channel row on the band
        m = 2 * tones + 1 + int(rng.integers(0, 40))
        envelope = rng.normal(size=m) + 1j * rng.normal(size=m)
        fold = received_envelope(envelope, word.angles(), loss, coefficients)
        bins = np.arange(-tones, tones + 1) % m
        branches = np.exp(-1j * word.angles())[:, None] * envelope / np.sqrt(loss * geom.count)
        parts = np.zeros((geom.count, m), dtype=complex)
        parts[:, bins] = coefficients * np.fft.fft(branches, axis=1)[:, bins]
        contributions = np.fft.ifft(parts, axis=1)
        peak = np.max(np.sum(np.abs(contributions), axis=0))
        assert_allclose(fold, contributions.sum(axis=0), rtol=0, atol=1e-12 * peak)

    def test_band_at_nyquist_or_dc_rejected(self):
        channel = build_channel_matrix(
            element_positions(1, 2, CARRIER_RF), ReceiverPosition(0.0, 3.0, 0.0), 2.0
        )
        word = PhaseWord([0, 1], 1)
        # 144 samples: the top band bin, 72, is the Nyquist bin
        sig = passband_tone(64, 144)
        band, coefficients = passband_receive_band(channel, self.CARRIER_BIN, 8, SPACING)
        with pytest.raises(ConfigurationError):
            reference.beamformed_received(sig, word, 1.0, band, coefficients)
        sig = passband_tone(4, self.N_SAMP)
        # a 4-bin carrier: the band reaches below DC
        band, coefficients = passband_receive_band(channel, 4, 8, SPACING)
        with pytest.raises(ConfigurationError):
            reference.beamformed_received(sig, word, 1.0, band, coefficients)
        # the library's fold takes any envelope period that holds all 2K + 1
        # band bins; SystemModel's M = 48 max(K, 4) always does
        envelope = np.ones(17, dtype=complex)
        assert received_envelope(envelope, word.angles(), 1.0, coefficients).size == 17

    def test_inputs_checked(self):
        channel = build_channel_matrix(
            element_positions(1, 2, CARRIER_RF), ReceiverPosition(0.0, 3.0, 0.0), 2.0
        )
        band, coefficients = passband_receive_band(channel, self.CARRIER_BIN, 8, SPACING)
        sig = passband_tone(64, self.N_SAMP)
        with pytest.raises(ConfigurationError):
            reference.beamformed_received(
                sig, PhaseWord([0, 0, 0], 2), 1.0, band, coefficients
            )
        with pytest.raises(ConfigurationError):
            reference.beamformed_received(sig, PhaseWord([0, 0], 2), 0.5, band, coefficients)
        with pytest.raises(ConfigurationError):
            reference.beamformed_received(
                stack(sig, sig), PhaseWord([0, 0], 2), 1.0, band, coefficients
            )
        baseband = np.zeros(self.N_SAMP, dtype=complex)
        with pytest.raises(ConfigurationError):
            reference.beamformed_received(baseband, PhaseWord([0, 0], 2), 1.0, band, coefficients)
        # the library's fold checks nothing: test_simulation.py's boundary
        # table holds the checks that reject its bad inputs before any stage
