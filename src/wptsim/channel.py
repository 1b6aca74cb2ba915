"""Near-field propagation from the planar array to the energy receiver."""

from dataclasses import dataclass

import numpy as np
from scipy.constants import speed_of_light

from .errors import DomainError
from .signal_chain import PASSBAND, SampledSignal


@dataclass(frozen=True)
class ReceiverPosition:
    """Cartesian location of the energy receiver, in meters."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class ArrayGeometry:
    """Half-wavelength-spaced uniform planar array.

    Elements lie in the x-z plane on a grid centered at the origin; boresight
    points along +y. The spacing is half the wavelength at the RF carrier.
    """

    rows: int
    cols: int
    carrier: float
    positions: np.ndarray  # (N, 3)

    @property
    def count(self) -> int:
        return self.rows * self.cols

    @property
    def spacing(self) -> float:
        return 0.5 * speed_of_light / self.carrier


def element_positions(rows: int, cols: int, carrier: float) -> ArrayGeometry:
    """Lay out the rows x cols element grid for the given RF carrier."""
    if rows < 1 or cols < 1:
        raise DomainError("array must have at least one row and one column")
    if carrier <= 0:
        raise DomainError("carrier frequency must be positive")
    spacing = 0.5 * speed_of_light / carrier
    xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    zs = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    xg, zg = np.meshgrid(xs, zs)
    positions = np.column_stack([xg.ravel(), np.zeros(rows * cols), zg.ravel()])
    return ArrayGeometry(rows, cols, carrier, positions)


def radiation_profile(theta, exponent: float):
    """Element gain 2(b+1) cos^b(theta) in the forward half-space, else 0.

    The boundary theta = pi/2 belongs to the zero region for every exponent.
    """
    theta_arr = np.asarray(theta, dtype=float)
    gain = np.zeros_like(theta_arr)
    ahead = (theta_arr >= 0.0) & (theta_arr < np.pi / 2.0)
    gain[ahead] = 2.0 * (exponent + 1.0) * np.cos(theta_arr[ahead]) ** exponent
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return float(gain)
    return gain


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex element-to-receiver gains, evaluable at any RF frequency.

    Gains are computed on demand per frequency bin so that intermodulation
    products created by the amplifier see the channel at their own wavelength.
    """

    distances: np.ndarray  # (N,) meters
    elevations: np.ndarray  # (N,) radians off boresight
    boresight_exponent: float
    carrier: float  # RF carrier the tone grid hangs off
    tone_frequencies: np.ndarray  # (K,) absolute RF frequencies

    @property
    def count(self) -> int:
        return self.distances.size

    def coefficients_at(self, frequencies) -> np.ndarray:
        """Per-element channel coefficients, shape (N, len(frequencies))."""
        freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
        if np.any(freqs <= 0):
            raise DomainError("channel frequencies must be positive")
        wavelengths = speed_of_light / freqs
        profile = np.sqrt(radiation_profile(self.elevations, self.boresight_exponent))
        amplitude = np.outer(profile / (4.0 * np.pi * self.distances), wavelengths)
        phase = np.exp(-2j * np.pi * np.outer(self.distances, freqs) / speed_of_light)
        return amplitude * phase

    @property
    def tone_coefficients(self) -> np.ndarray:
        """Coefficients at the nominal tone frequencies, shape (N, K)."""
        return self.coefficients_at(self.tone_frequencies)


def build_channel_matrix(
    geometry: ArrayGeometry,
    receiver: ReceiverPosition,
    tone_count: int,
    tone_spacing: float,
    boresight_exponent: float = 2.0,
) -> ChannelMatrix:
    """Assemble the per-element channel for the given receiver location."""
    delta = receiver.as_array()[None, :] - geometry.positions
    distances = np.linalg.norm(delta, axis=1)
    if np.any(distances <= 0):
        raise DomainError("receiver coincides with an array element")
    cos_elev = np.clip(delta[:, 1] / distances, -1.0, 1.0)
    elevations = np.arccos(cos_elev)
    tone_frequencies = geometry.carrier + np.arange(tone_count) * tone_spacing
    return ChannelMatrix(
        distances, elevations, boresight_exponent, geometry.carrier, tone_frequencies
    )


def channel_coefficient(
    geometry: ArrayGeometry,
    receiver: ReceiverPosition,
    tone_index: int,
    tone_spacing: float,
    boresight_exponent: float = 2.0,
) -> np.ndarray:
    """Per-element complex gain for one tone, wavelength taken at its RF frequency."""
    if tone_index < 0:
        raise DomainError("tone index must be nonnegative")
    matrix = build_channel_matrix(
        geometry, receiver, tone_index + 1, tone_spacing, boresight_exponent
    )
    return matrix.coefficients_at(geometry.carrier + tone_index * tone_spacing)[:, 0]


def received_signal(
    elements: SampledSignal,
    channel: ChannelMatrix,
    carrier: float,
    bandwidth: float,
) -> SampledSignal:
    """Propagate every element branch to the receiver and sum.

    `elements` is the (N, n) stack of branches, one row per channel entry.
    Each occupied bin inside [carrier - bandwidth, carrier + bandwidth] is
    scaled by the channel at that bin's RF frequency (offsets are mapped onto
    the channel's own carrier when the simulation carrier is scaled down);
    content outside the receive band is rejected.
    """
    if elements.domain != PASSBAND:
        raise DomainError("received_signal combines real passband branches")
    shape = elements.samples.shape
    if len(shape) != 2 or shape[0] != channel.count:
        raise DomainError(
            f"expected a stack of {channel.count} element signals, got shape {shape}"
        )
    n = shape[1]
    freqs = np.fft.rfftfreq(n, d=1.0 / elements.sample_rate)
    band = np.abs(freqs - carrier) <= bandwidth * (1.0 + 1e-12)
    coeffs = channel.coefficients_at(channel.carrier + (freqs[band] - carrier))
    bins = np.fft.rfft(elements.samples, axis=1)[:, band]
    spectrum = np.zeros(freqs.size, dtype=complex)
    spectrum[band] = np.sum(coeffs * bins, axis=0)
    out = np.fft.irfft(spectrum, n=n)
    return SampledSignal(out, elements.sample_rate, elements.tone_spacing, PASSBAND)
