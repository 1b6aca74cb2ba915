"""The per-branch passband path, kept as the tests' reference.

The chain runs the phase shifters and the channel as one per-bin beam gain
(wptsim.channel.beamformed_received). The tests check that fold against the
explicit path here: apply_phase_shifters forms the N real element branches,
and received_signal propagates each through the channel and sums them.
"""

import numpy as np

from wptsim import DomainError, PhaseWord


def apply_phase_shifters(x: np.ndarray, word: PhaseWord, insertion_loss: float) -> np.ndarray:
    """Split the amplified passband period across the array through B-bit phase shifters.

    The rotation acts on the analytic envelope (an ideal RF phase shift at the
    carrier); each branch is scaled by 1/sqrt(insertion_loss * N). Returns the
    (N, n) stack of branches, one row per element.
    """
    if np.iscomplexobj(x):
        raise DomainError("phase shifters act on the real passband signal")
    if insertion_loss < 1:
        raise DomainError("insertion loss is a linear power ratio >= 1")
    # Hilbert transform: -j on every positive-frequency bin, none at DC or Nyquist
    spectrum = -1j * np.fft.rfft(x)
    spectrum[0] = 0.0
    if x.size % 2 == 0:
        spectrum[-1] = 0.0
    quadrature = np.fft.irfft(spectrum, n=x.size)
    scale = 1.0 / np.sqrt(insertion_loss * word.count)
    angles = word.angles()
    # Re{(x + j q) e^{-j angle}} = x cos(angle) + q sin(angle)
    return scale * (
        np.cos(angles)[:, None] * x[None, :] + np.sin(angles)[:, None] * quadrature[None, :]
    )


def received_signal(
    elements: np.ndarray, band: np.ndarray, band_coefficients: np.ndarray
) -> np.ndarray:
    """Propagate every element branch to the receiver and sum.

    `elements` is the real (N, n) stack of branches, one row per channel
    entry. Each bin of the receive band (`band` and `band_coefficients`, from
    receive_band) is scaled by the channel at that bin's RF frequency; content
    outside the band is rejected.
    """
    if np.iscomplexobj(elements):
        raise DomainError("received_signal combines real passband branches")
    count = band_coefficients.shape[0]
    if elements.ndim != 2 or elements.shape[0] != count:
        raise DomainError(
            f"expected a stack of {count} element signals, got shape {elements.shape}"
        )
    n = elements.shape[1]
    if band.size and (band[0] < 0 or 2 * band[-1] > n):
        raise DomainError("the receive band must lie between DC and Nyquist")
    bins = np.fft.rfft(elements, axis=1)[:, band]
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    spectrum[band] = np.sum(band_coefficients * bins, axis=0)
    return np.fft.irfft(spectrum, n=n)
