"""wptsim: simulator and optimizer for an analog multi-antenna RF power transmitter.

The package exports the model: its parameter records, the system and the
free variables, the evaluations and the searches. The stage kernels stay in
their modules (signal_chain, channel, rectenna, power_model); they take
inputs that these names have already checked.
"""

from .channel import ReceiverPosition, element_positions
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
from .power_model import PowerBreakdown, PowerParams
from .rectenna import RectennaParams
from .signal_chain import PhaseWord, ToneSet
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
    "build_setup",
    "decode_particle",
    "element_positions",
    "evaluate_batch",
    "evaluate_candidate",
    "evaluate_solution",
    "load_config",
    "particle_bounds",
    "pso_run",
    "run_chain",
]
