import numpy as np
import pytest

from wptsim import PowerParams, RectennaParams
from wptsim.channel import beamformed_received
from wptsim.config import build_setup, load_config
from wptsim.signal_chain import band_bins


@pytest.fixture
def rectenna_params():
    return RectennaParams(
        source_resistance=50.0,
        load_resistance=1600.0,
        saturation_current=5e-6,
        thermal_voltage=25.86e-3,
        ideality=1.05,
    )


@pytest.fixture
def power_params():
    return PowerParams(
        supply_voltage=3.0,
        unit_current=10e-6,
        parasitic_capacitance=1e-12,
        correction_factor=1.0,
        mixer_power=23e-3,
        oscillator_power=5e-3,
        hpa_input_resistance=1.0,
        hpa_output_resistance=1.0,
    )


def received_envelope(envelope, angles, insertion_loss, band_coefficients):
    """An amplified envelope period (..., n) received under one beam per period:
    its band bins, the transmit's emission, through the beam's gains."""
    n = envelope.shape[-1]
    emission = np.fft.fft(envelope)[..., band_bins(band_coefficients.shape[1] // 2, n)]
    return beamformed_received(emission, angles, insertion_loss, band_coefficients, n)


def desk_setup(**overrides):
    """Desk-profile run setup with nested-dict overrides."""
    return build_setup(load_config(profile="desk", overrides=overrides))


def toy_setup(particles=20, iterations=50, seed=1):
    """The K=1, N=2, B=1, 8-bit-DAC instance used against the grid oracle."""
    return desk_setup(
        waveform={"tone_count": 1},
        array={"rows": 1, "cols": 2},
        chain={"ps_bits": 1, "dac_bits": 8},
        swarm={"particles": particles, "iterations": iterations, "seed": seed},
    )


@pytest.fixture
def make_desk_setup():
    return desk_setup


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)
