"""Run configuration: built-in profiles, YAML loading, validation, assembly.

Two first-class profiles exist. "paper" places the passband reference at
the true 5.18 GHz carrier; "desk" snaps it down to 64 tone spacings (80 MHz)
while the channel keeps the faithful RF wavelengths. The chain runs on the
complex envelope and reads neither carrier nor passband rate, so both
profiles report the same numbers. A user config file deep-merges over the
chosen profile.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .channel import ReceiverPosition, element_positions
from .errors import ConfigurationError, DomainError
from .optimizer import SwarmConfig
from .power_model import PowerParams
from .rectenna import RectennaParams
from .signal_chain import ChainConfig, PhaseWord, ToneSet, default_sim_rate
from .simulation import SystemModel

TONE_SPACING = 1.25e6  # 10 MHz bandwidth split over 8 tones

PAPER_CARRIER = 5.18e9

# The default simulate waveform drives every tone at this share of the DAC
# range. At full range its samples t = 5, 15, ..., 75 sit exactly on a half
# step of the 3-bit DAC, so the rounding of the synthesis arithmetic decided
# which way they quantized; at 0.95 every DAC input sample of the default
# waveform lies at least 1.6e-3 steps from a half step at 1 to 8 bits.
DEFAULT_AMPLITUDE_SHARE = 0.95

# every leaf: type and paper default; a None default marks an optional leaf,
# and a (list, type) pair a list of that element type
_TABLE = {
    "waveform": {
        "tone_count": (int, 8),
        "tone_spacing": (float, TONE_SPACING),
        "amplitudes": ((list, float), None),  # default: 0.95 dac_range on every tone
        "phases": ((list, float), None),  # default: all zero
        "phase_word": ((list, int), None),  # default: all zero
    },
    "chain": {
        "dac_bits": (int, 3),
        "dac_range": (float, 1.0),
        "dac_sample_rate": (float, 100e6),
        "carrier": (float, PAPER_CARRIER),
        # the passband reference's rate; default 2.5x (carrier + bandwidth), snapped
        "sim_sample_rate": (float, None),
        "hpa_gain": (float, 10.0),
        "hpa_saturation": (float, 10.0),
        "hpa_smoothness": (float, 4.0),
        "ps_bits": (int, 3),
        "ps_insertion_loss_db": (float, 0.5),
    },
    "array": {"rows": (int, 5), "cols": (int, 5)},
    "receiver": {"position": ((list, float), [0.0, 3.0, 0.0])},
    "channel": {
        "boresight_exponent": (float, 2.0),
        "rf_carrier": (float, None),  # default: the chain carrier
    },
    "rectenna": {
        "source_resistance": (float, 50.0),
        "load_resistance": (float, 1600.0),
        "saturation_current": (float, 5e-6),
        "thermal_voltage": (float, 25.86e-3),
        "ideality": (float, 1.05),
    },
    "power": {
        "supply_voltage": (float, 3.0),
        "unit_current": (float, 10e-6),
        "parasitic_capacitance": (float, 1e-12),
        "correction_factor": (float, 1.0),
        "mixer_power": (float, 23e-3),
        "oscillator_power": (float, 5e-3),
        "hpa_input_resistance": (float, 1.0),
        "hpa_output_resistance": (float, 1.0),
    },
    "swarm": {
        "particles": (int, 30),
        "iterations": (int, 200),
        "inertia": (float, 0.729),
        "cognitive": (float, 1.49445),
        "social": (float, 1.49445),
        "seed": (int, 1),
        "amplitude_max": (float, 300.0),
        "required_dc_power": (float, 20e-6),
        "penalty": (float, 1e6),
    },
}


def deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


_PAPER = {
    section: {key: default for key, (_, default) in fields.items()}
    for section, fields in _TABLE.items()
} | {"sweep": []}

PROFILES = {
    "paper": _PAPER,
    "desk": deep_merge(
        _PAPER, {"chain": {"carrier": 64 * TONE_SPACING}, "channel": {"rf_carrier": PAPER_CARRIER}}
    ),
}


def _coerce_leaf(value, spec, path):
    kind, default = spec
    if value is None:
        if default is None:
            return None
        raise ConfigurationError(f"{path}: value may not be null")
    if isinstance(kind, tuple):
        _, inner = kind
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{path}: expected a list")
        return [_coerce_scalar(v, inner, f"{path}[{i}]") for i, v in enumerate(value)]
    return _coerce_scalar(value, kind, path)


def _coerce_scalar(value, kind, path):
    """The one check of a config number: its type, and that it is finite."""
    # YAML parses exponent-only literals like 5e-6 as strings; accept them
    if isinstance(value, bool):
        raise ConfigurationError(f"{path}: expected a number, got a boolean")
    try:
        if kind is int:
            # never round-trip through float: 64-bit seeds must stay exact
            if isinstance(value, int):
                return value
            if isinstance(value, str):
                try:
                    return int(value)
                except ValueError:
                    pass
            as_float = float(value)
            as_int = int(as_float)  # OverflowError for +-inf, ValueError for nan
            if as_int != as_float:
                raise ValueError
            return as_int
        number = float(value)  # OverflowError for integers beyond the double range
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{path}: expected {kind.__name__}, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigurationError(f"{path}: expected a finite number, got {value!r}")
    return number


def normalize_config(raw: dict) -> dict:
    """Validate section/key structure and coerce every leaf to its type."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a mapping of sections")
    unknown = set(raw) - set(_TABLE) - {"sweep"}
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")
    out = {}
    for section, fields in _TABLE.items():
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise ConfigurationError(f"{section}: expected a mapping")
        extra = set(given) - set(fields)
        if extra:
            raise ConfigurationError(f"{section}: unknown keys {sorted(extra)}")
        normalized = {}
        for key, spec in fields.items():
            if key not in given and spec[1] is not None:
                raise ConfigurationError(f"{section}.{key}: missing required key")
            normalized[key] = _coerce_leaf(given.get(key), spec, f"{section}.{key}")
        out[section] = normalized
    sweep = raw.get("sweep", [])
    if not isinstance(sweep, list):
        raise ConfigurationError("sweep: expected a list of {path, values} entries")
    out_sweep = []
    for i, entry in enumerate(sweep):
        if not isinstance(entry, dict) or set(entry) != {"path", "values"}:
            raise ConfigurationError(f"sweep[{i}]: expected keys 'path' and 'values'")
        path = entry["path"]
        values = entry["values"]
        if not isinstance(values, list) or not values:
            raise ConfigurationError(f"sweep[{i}]: values must be a nonempty list")
        _leaf_spec(path, f"sweep[{i}].path")
        out_sweep.append({"path": path, "values": list(values)})
    out["sweep"] = out_sweep
    return out


def _leaf_spec(path: str, label: str) -> tuple:
    parts = path.split(".")
    if len(parts) != 2 or parts[0] not in _TABLE or parts[1] not in _TABLE[parts[0]]:
        raise ConfigurationError(f"{label}: no such parameter path {path!r}")
    return _TABLE[parts[0]][parts[1]]


def config_set(cfg: dict, path: str, value) -> None:
    spec = _leaf_spec(path, "path")
    section, key = path.split(".", 1)
    cfg[section][key] = _coerce_leaf(value, spec, path)


# libyaml's parser when PyYAML was built with it: the same documents, about 8x
# faster to parse than the pure-Python scanner
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path=None, profile: str = "desk", overrides: dict | None = None) -> dict:
    """Merge profile defaults, an optional YAML file, and direct overrides."""
    if profile not in PROFILES:
        raise ConfigurationError(f"unknown profile {profile!r}")
    cfg = copy.deepcopy(PROFILES[profile])
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = yaml.load(fh, Loader=_LOADER)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"cannot parse config file {path}: {exc}") from exc
        if user is not None:
            if not isinstance(user, dict):
                raise ConfigurationError("config file must contain a mapping")
            cfg = deep_merge(cfg, user)
    if overrides:
        cfg = deep_merge(cfg, overrides)
    return normalize_config(cfg)


def dump_config(cfg: dict) -> str:
    """Serialize a normalized config; loading the dump reproduces it exactly."""
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


@dataclass(frozen=True)
class RunSetup:
    """Typed view of one validated run configuration."""

    system: SystemModel
    swarm: SwarmConfig
    tones: ToneSet
    phase_word: PhaseWord
    sweep: list
    raw: dict


def build_setup(cfg: dict) -> RunSetup:
    """Assemble the system model and default waveform from a normalized config."""
    wf = cfg["waveform"]
    ch = cfg["chain"]
    tone_count = wf["tone_count"]
    tone_spacing = wf["tone_spacing"]
    if tone_spacing <= 0:
        raise ConfigurationError("waveform.tone_spacing must be positive")
    bandwidth = tone_count * tone_spacing

    sim_rate = ch["sim_sample_rate"]
    if sim_rate is None:
        sim_rate = default_sim_rate(ch["carrier"], bandwidth, tone_spacing)

    try:
        ps_insertion_loss = 10.0 ** (ch["ps_insertion_loss_db"] / 10.0)
    except OverflowError:
        # the linear ratio is a finite double only up to about 3082 dB
        raise ConfigurationError(
            "chain: ps_insertion_loss_db is too large for a linear power ratio"
        ) from None
    try:
        chain = ChainConfig(
            dac_bits=ch["dac_bits"],
            dac_range=ch["dac_range"],
            dac_sample_rate=ch["dac_sample_rate"],
            carrier=ch["carrier"],
            hpa_gain=ch["hpa_gain"],
            hpa_saturation=ch["hpa_saturation"],
            hpa_smoothness=ch["hpa_smoothness"],
            ps_bits=ch["ps_bits"],
            ps_insertion_loss=ps_insertion_loss,
            sim_sample_rate=sim_rate,
        )
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"chain: {exc}") from exc

    rf_carrier = cfg["channel"]["rf_carrier"]
    if rf_carrier is None:
        rf_carrier = chain.carrier
    try:
        geometry = element_positions(cfg["array"]["rows"], cfg["array"]["cols"], rf_carrier)
    except DomainError as exc:
        raise ConfigurationError(f"array: {exc}") from exc

    position = cfg["receiver"]["position"]
    if len(position) != 3:
        raise ConfigurationError("receiver.position must have three coordinates")
    receiver = ReceiverPosition(*position)

    try:
        rectenna = RectennaParams(**cfg["rectenna"])
    except DomainError as exc:
        raise ConfigurationError(f"rectenna: {exc}") from exc
    try:
        power = PowerParams(**cfg["power"])
    except DomainError as exc:
        raise ConfigurationError(f"power: {exc}") from exc
    try:
        swarm = SwarmConfig(**cfg["swarm"])
    except ConfigurationError as exc:
        raise ConfigurationError(f"swarm: {exc}") from exc

    system = SystemModel(
        tone_count=tone_count,
        tone_spacing=tone_spacing,
        chain=chain,
        geometry=geometry,
        receiver=receiver,
        rectenna=rectenna,
        power=power,
        boresight_exponent=cfg["channel"]["boresight_exponent"],
    )

    amplitudes = wf["amplitudes"]
    if amplitudes is None:
        amplitudes = [DEFAULT_AMPLITUDE_SHARE * chain.dac_range] * tone_count
    phases = wf["phases"]
    if phases is None:
        phases = [0.0] * tone_count
    word_levels = wf["phase_word"]
    if word_levels is None:
        word_levels = [0] * system.element_count
    try:
        tones = ToneSet(np.asarray(amplitudes), np.asarray(phases), tone_spacing)
    except DomainError as exc:
        raise ConfigurationError(f"waveform: {exc}") from exc
    if tones.count != tone_count:
        raise ConfigurationError("waveform: amplitude/phase lists must match tone_count")
    try:
        word = PhaseWord(np.asarray(word_levels), chain.ps_bits)
    except DomainError as exc:
        raise ConfigurationError(f"waveform.phase_word: {exc}") from exc
    if word.count != system.element_count:
        raise ConfigurationError("waveform.phase_word must have one level per element")

    sweep = [(entry["path"], entry["values"]) for entry in cfg["sweep"]]
    return RunSetup(system, swarm, tones, word, sweep, cfg)
