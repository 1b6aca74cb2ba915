"""wptsim: simulator and optimizer for an analog multi-antenna RF power transmitter."""

from .channel import (
    ReceiverPosition,
    build_channel_matrix,
    element_positions,
    radiation_profile,
)
from .config import build_setup, load_config
from .errors import ConfigurationError, DomainError, NumericalError
from .optimizer import (
    SwarmConfig,
    brute_force_grid,
    decode_particle,
    evaluate_candidate,
    particle_bounds,
    pso_run,
)
from .power_model import (
    PowerBreakdown,
    PowerParams,
    dac_power,
    hpa_power,
    signal_power,
    total_power,
)
from .rectenna import (
    RectennaParams,
    dc_output_voltage,
    harvest_from_signal,
    harvested_power,
    lambert_w0_log,
    rhs_log_mean,
    solve_rectifier_equation,
)
from .signal_chain import (
    PhaseWord,
    ToneSet,
    lowpass_filter,
    quantize_dac,
    rapp_amplifier,
    synthesize_multitone,
)
from .simulation import SystemModel, evaluate_batch, evaluate_solution, run_chain

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DomainError",
    "NumericalError",
    "PhaseWord",
    "PowerBreakdown",
    "PowerParams",
    "ReceiverPosition",
    "RectennaParams",
    "SwarmConfig",
    "SystemModel",
    "ToneSet",
    "brute_force_grid",
    "build_channel_matrix",
    "build_setup",
    "dac_power",
    "dc_output_voltage",
    "decode_particle",
    "element_positions",
    "evaluate_batch",
    "evaluate_candidate",
    "evaluate_solution",
    "harvest_from_signal",
    "harvested_power",
    "hpa_power",
    "lambert_w0_log",
    "load_config",
    "lowpass_filter",
    "particle_bounds",
    "pso_run",
    "quantize_dac",
    "radiation_profile",
    "rapp_amplifier",
    "rhs_log_mean",
    "run_chain",
    "signal_power",
    "solve_rectifier_equation",
    "synthesize_multitone",
    "total_power",
]
