"""Near-field propagation from the planar array to the energy receiver."""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from .errors import ConfigurationError, _is_integer, require_finite
from .signal_chain import band_bins

# m/s, exact by the SI definition of the metre (scipy.constants.speed_of_light;
# importing that module costs about 1 MB of memory for this one number)
speed_of_light = 299_792_458.0

# Most entries in the channel H_band, N elements x (2K+1) band bins: building
# it peaks near 43 bytes an entry (measured at 2^21), so 2^22 keeps it under
# 200 MiB; either profile uses 425. H_band is at least 3N, so the same budget
# on N keeps the geometry from being built for an array the channel rejects.
MAX_CHANNEL_ENTRIES = 2**22


@dataclass(frozen=True)
class ReceiverPosition:
    """Cartesian location of the energy receiver, in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        require_finite(self)

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
    for name, count in (("rows", rows), ("cols", cols)):
        if not (_is_integer(count) and count >= 1):
            raise ConfigurationError(f"{name} must be an integer of at least 1, got {count!r}")
    if rows * cols > MAX_CHANNEL_ENTRIES:
        raise ConfigurationError(
            f"rows x cols = {rows} x {cols} elements; at most {MAX_CHANNEL_ENTRIES} are modelled"
        )
    if not (isinstance(carrier, numbers.Real) and 0 < carrier < math.inf):
        raise ConfigurationError(f"carrier frequency must be positive and finite, got {carrier!r}")
    spacing = 0.5 * speed_of_light / carrier
    xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    zs = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    xg, zg = np.meshgrid(xs, zs)
    positions = np.column_stack([xg.ravel(), np.zeros(rows * cols), zg.ravel()])
    return ArrayGeometry(rows, cols, carrier, positions)


def radiation_profile(theta, exponent: float) -> np.ndarray:
    """Element gain 2(b+1) cos^b(theta) in the forward half-space, else 0,
    elementwise over an array of angles.

    The boundary theta = pi/2 belongs to the zero region for every exponent.
    """
    theta = np.asarray(theta, dtype=float)
    gain = np.zeros_like(theta)
    ahead = (theta >= 0.0) & (theta < np.pi / 2.0)
    gain[ahead] = 2.0 * (exponent + 1.0) * np.cos(theta[ahead]) ** exponent
    return gain


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex element-to-receiver gains, evaluable at any RF frequency.

    Each frequency sees the channel at its own wavelength. SystemModel takes
    it once, at the 2K + 1 band bins the receiver keeps (H_band, receive_band),
    and no evaluation reads the matrix again.
    """

    distances: np.ndarray  # (N,) meters
    elevations: np.ndarray  # (N,) radians off boresight
    boresight_exponent: float
    carrier: float  # RF carrier the tone grid hangs off

    def coefficients_at(self, frequencies) -> np.ndarray:
        """Per-element channel coefficients at positive frequencies, shape
        (N, len(frequencies))."""
        freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
        wavelengths = speed_of_light / freqs
        profile = np.sqrt(radiation_profile(self.elevations, self.boresight_exponent))
        amplitude = np.outer(profile / (4.0 * np.pi * self.distances), wavelengths)
        phase = np.exp(-2j * np.pi * np.outer(self.distances, freqs) / speed_of_light)
        return amplitude * phase


def build_channel_matrix(
    geometry: ArrayGeometry, receiver: ReceiverPosition, boresight_exponent: float
) -> ChannelMatrix:
    """Assemble the per-element channel for the given receiver location."""
    delta = receiver.as_array()[None, :] - geometry.positions
    distances = np.linalg.norm(delta, axis=1)
    if np.any(distances <= 0):
        raise ConfigurationError("receiver coincides with an array element")
    cos_elev = np.clip(delta[:, 1] / distances, -1.0, 1.0)
    elevations = np.arccos(cos_elev)
    return ChannelMatrix(distances, elevations, boresight_exponent, geometry.carrier)


def receive_band(channel: ChannelMatrix, tone_count: int, tone_spacing: float) -> np.ndarray:
    """The channel at the band the receiver keeps, H_band, (N, 2K+1).

    The band is the offsets k = -K..K around the carrier. Offset k sits k
    tone spacings off the RF carrier, so its channel is taken at
    channel.carrier + k * tone_spacing.
    """
    offsets = np.arange(-tone_count, tone_count + 1)
    return channel.coefficients_at(channel.carrier + offsets * tone_spacing)


def beamformed_received(
    emission: np.ndarray,
    angles: np.ndarray,
    insertion_loss: float,
    band_coefficients: np.ndarray,
    n: int,
) -> np.ndarray:
    """The received envelope period, n samples, of an emission under a beam:
    the phase shifters and the channel in one pass.

    emission is X, the band bins k = -K..K of the amplified envelope's
    n-point DFT, (..., 2K+1), and angles, the shifters' rotations theta in
    radians, (..., N): one beam per row, the leading axes broadcast against
    the emission's. The model is linear after the amplifier, and the
    receiver keeps only the band. There, branch i holds s e^{-j theta_i} X[k],
    s = (insertion_loss N)^-1/2, so the received envelope's bins are X[k]
    times the per-bin beam gain g = s e^{-j theta}^T H_band; one inverse DFT
    of them gives the received envelope on the amplified envelope's samples,
    and no branch is formed. Each beam's gain is its own vector-matrix
    product, formed once however many emissions share it; one
    (P, N) @ (N, 2K+1) product would round a row differently with the batch
    size. The period must hold every band bin, n > 2K.
    """
    elements, width = band_coefficients.shape
    scale = 1.0 / math.sqrt(insertion_loss * elements)
    weights = scale * np.exp(-1j * angles)
    gain = (weights[..., None, :] @ band_coefficients)[..., 0, :]
    received = emission * gain
    spectrum = np.zeros((*received.shape[:-1], n), dtype=complex)
    spectrum[..., band_bins(width // 2, n)] = received
    return np.fft.ifft(spectrum)
