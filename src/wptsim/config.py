"""Run configuration: built-in profiles, YAML loading, validation, assembly.

Two first-class profiles exist. "paper" simulates the passband at the true
5.18 GHz carrier; "desk" snaps the simulated carrier down to 64 tone spacings
(80 MHz) for fast runs while the channel keeps the faithful RF wavelengths.
A user config file deep-merges over the chosen profile.
"""

import copy
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

_BASE_PROFILE = {
    "waveform": {
        "tone_count": 8,
        "tone_spacing": TONE_SPACING,
        "amplitudes": None,  # default: dac_range on every tone
        "phases": None,  # default: all zero
        "phase_word": None,  # default: all zero
    },
    "chain": {
        "dac_bits": 3,
        "dac_range": 1.0,
        "dac_sample_rate": 100e6,
        "carrier": 5.18e9,
        "sim_sample_rate": None,  # default: 2.5x (carrier + bandwidth), snapped
        "hpa_gain": 10.0,
        "hpa_saturation": 10.0,
        "hpa_smoothness": 4.0,
        "ps_bits": 3,
        "ps_insertion_loss_db": 0.5,
    },
    "array": {"rows": 5, "cols": 5},
    "receiver": {"position": [0.0, 3.0, 0.0]},
    "channel": {
        "boresight_exponent": 2.0,
        "rf_carrier": None,  # default: the chain carrier
    },
    "rectenna": {
        "source_resistance": 50.0,
        "load_resistance": 1600.0,
        "saturation_current": 5e-6,
        "thermal_voltage": 25.86e-3,
        "ideality": 1.05,
    },
    "power": {
        "supply_voltage": 3.0,
        "unit_current": 10e-6,
        "parasitic_capacitance": 1e-12,
        "correction_factor": 1.0,
        "mixer_power": 23e-3,
        "oscillator_power": 5e-3,
        "hpa_input_resistance": 1.0,
        "hpa_output_resistance": 1.0,
    },
    "swarm": {
        "particles": 30,
        "iterations": 200,
        "inertia": 0.729,
        "cognitive": 1.49445,
        "social": 1.49445,
        "seed": 1,
        "amplitude_max": 300.0,
        "required_dc_power": 20e-6,
        "penalty": 1e6,
    },
    "sweep": [],
}

PROFILES = {
    "paper": _BASE_PROFILE,
    "desk": {
        **copy.deepcopy(_BASE_PROFILE),
        "chain": {**copy.deepcopy(_BASE_PROFILE["chain"]), "carrier": 64 * TONE_SPACING},
        "channel": {"boresight_exponent": 2.0, "rf_carrier": 5.18e9},
    },
}

# leaf coercions; None marks optional leaves, lists carry their element type
_SCHEMA = {
    "waveform": {
        "tone_count": int,
        "tone_spacing": float,
        "amplitudes": (list, float),
        "phases": (list, float),
        "phase_word": (list, int),
    },
    "chain": {
        "dac_bits": int,
        "dac_range": float,
        "dac_sample_rate": float,
        "carrier": float,
        "sim_sample_rate": float,
        "hpa_gain": float,
        "hpa_saturation": float,
        "hpa_smoothness": float,
        "ps_bits": int,
        "ps_insertion_loss_db": float,
    },
    "array": {"rows": int, "cols": int},
    "receiver": {"position": (list, float)},
    "channel": {"boresight_exponent": float, "rf_carrier": float},
    "rectenna": {
        "source_resistance": float,
        "load_resistance": float,
        "saturation_current": float,
        "thermal_voltage": float,
        "ideality": float,
    },
    "power": {
        "supply_voltage": float,
        "unit_current": float,
        "parasitic_capacitance": float,
        "correction_factor": float,
        "mixer_power": float,
        "oscillator_power": float,
        "hpa_input_resistance": float,
        "hpa_output_resistance": float,
    },
    "swarm": {
        "particles": int,
        "iterations": int,
        "inertia": float,
        "cognitive": float,
        "social": float,
        "seed": int,
        "amplitude_max": float,
        "required_dc_power": float,
        "penalty": float,
    },
}

_OPTIONAL = {
    ("waveform", "amplitudes"),
    ("waveform", "phases"),
    ("waveform", "phase_word"),
    ("chain", "sim_sample_rate"),
    ("channel", "rf_carrier"),
}


def _coerce_leaf(value, kind, path):
    if value is None:
        if tuple(path.split(".")) in _OPTIONAL:
            return None
        raise ConfigurationError(f"{path}: value may not be null")
    if isinstance(kind, tuple):
        outer, inner = kind
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{path}: expected a list")
        return [_coerce_scalar(v, inner, f"{path}[{i}]") for i, v in enumerate(value)]
    return _coerce_scalar(value, kind, path)


def _coerce_scalar(value, kind, path):
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
            as_int = int(as_float)
            if as_int != as_float:
                raise ValueError
            return as_int
        return float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{path}: expected {kind.__name__}, got {value!r}") from None


def normalize_config(raw: dict) -> dict:
    """Validate section/key structure and coerce every leaf to its type."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a mapping of sections")
    unknown = set(raw) - set(_SCHEMA) - {"sweep"}
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")
    out = {}
    for section, fields in _SCHEMA.items():
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise ConfigurationError(f"{section}: expected a mapping")
        extra = set(given) - set(fields)
        if extra:
            raise ConfigurationError(f"{section}: unknown keys {sorted(extra)}")
        normalized = {}
        for key, kind in fields.items():
            if key not in given and (section, key) not in _OPTIONAL:
                raise ConfigurationError(f"{section}.{key}: missing required key")
            normalized[key] = _coerce_leaf(given.get(key), kind, f"{section}.{key}")
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
        _require_path(out, path, f"sweep[{i}].path")
        out_sweep.append({"path": path, "values": list(values)})
    out["sweep"] = out_sweep
    return out


def _require_path(cfg: dict, path: str, label: str) -> None:
    parts = path.split(".")
    if len(parts) != 2 or parts[0] not in _SCHEMA or parts[1] not in _SCHEMA[parts[0]]:
        raise ConfigurationError(f"{label}: no such parameter path {path!r}")


def config_get(cfg: dict, path: str):
    section, key = path.split(".", 1)
    return cfg[section][key]


def config_set(cfg: dict, path: str, value) -> None:
    _require_path(cfg, path, "path")
    section, key = path.split(".", 1)
    cfg[section][key] = _coerce_leaf(value, _SCHEMA[section][key], path)


def deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path=None, profile: str = "desk", overrides: dict | None = None) -> dict:
    """Merge profile defaults, an optional YAML file, and direct overrides."""
    if profile not in PROFILES:
        raise ConfigurationError(f"unknown profile {profile!r}")
    cfg = copy.deepcopy(PROFILES[profile])
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = yaml.safe_load(fh)
        except OSError as exc:
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
    if tone_count < 1:
        raise ConfigurationError("waveform.tone_count must be at least 1")
    if tone_spacing <= 0:
        raise ConfigurationError("waveform.tone_spacing must be positive")
    bandwidth = tone_count * tone_spacing

    sim_rate = ch["sim_sample_rate"]
    if sim_rate is None:
        sim_rate = default_sim_rate(ch["carrier"], bandwidth, tone_spacing)

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
            ps_insertion_loss=10.0 ** (ch["ps_insertion_loss_db"] / 10.0),
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
        amplitudes = [chain.dac_range] * tone_count
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
