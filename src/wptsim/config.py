"""Run configuration: built-in profiles, YAML loading, validation, assembly.

One profile, "paper", holds the paper's defaults; "desk" is an alias of it,
kept for the scripts and benchmarks that name it. The one carrier is
channel.rf_carrier: the array's spacing, the channel's tone frequencies and
so the paper's frequency trend hang off it. The chain runs on the complex
envelope and reads no carrier. A user config file deep-merges over the
chosen profile.
"""

import copy
import math
import os
from dataclasses import MISSING, dataclass, fields

import numpy as np
import yaml

from .channel import ReceiverPosition, element_positions
from .errors import ConfigurationError
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

# the sections that are exactly a record's fields, with its types and defaults;
# chain is one too, but built apart, with the sim_sample_rate it computes
_RECORDS = {"rectenna": RectennaParams, "power": PowerParams, "swarm": SwarmConfig}


def _leaves(record) -> dict:
    """A record's fields that have defaults, as config leaves; a field without
    one (the chain's sim_sample_rate) is computed, not configured."""
    return {f.name: (f.type, f.default) for f in fields(record) if f.default is not MISSING}


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
    "chain": _leaves(ChainConfig),
    "array": {"rows": (int, 5), "cols": (int, 5)},
    "receiver": {"position": ((list, float), [0.0, 3.0, 0.0])},
    "channel": {
        "boresight_exponent": (float, 2.0),
        "rf_carrier": (float, PAPER_CARRIER),
    },
} | {section: _leaves(record) for section, record in _RECORDS.items()}


def deep_merge(base: dict, override: dict) -> dict:
    """override merged over base, in new dicts wherever both hold a mapping;
    neither argument is changed, and every other value is the one given, not
    a copy (normalize_config builds the result's containers afresh)."""
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


_PAPER = {
    section: {key: default for key, (_, default) in fields.items()}
    for section, fields in _TABLE.items()
} | {"sweep": []}

# "desk" stays as an alias: the benchmark harness and existing scripts name it
PROFILES = {"paper": _PAPER, "desk": _PAPER}


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
    """Validate section/key structure and coerce every leaf to its type. The
    result shares no container with raw."""
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
            raise ConfigurationError(f"unknown keys {[f'{section}.{k}' for k in sorted(extra)]}")
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
        # a list leaf's sweep values are lists: copied, as every other leaf is
        out_sweep.append({"path": path, "values": copy.deepcopy(values)})
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


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """What failed to parse, on one line: the parser's problem and where it
    found it, or the first line of its message when it marks none."""
    problem = getattr(exc, "problem", None)
    mark = getattr(exc, "problem_mark", None)
    if problem is None or mark is None:
        return (str(exc).splitlines() or [type(exc).__name__])[0]
    return f"{problem} at line {mark.line + 1}, column {mark.column + 1}"


def load_config(path=None, profile: str = "paper", overrides: dict | None = None) -> dict:
    """Merge profile defaults, an optional YAML file, and direct overrides."""
    if not (isinstance(profile, str) and profile in PROFILES):
        raise ConfigurationError(f"unknown profile {profile!r}")
    # open() reads an int as a file descriptor, and a bool is an int
    if not (path is None or isinstance(path, (str, os.PathLike))):
        raise ConfigurationError(f"config path must be a string or a path, got {path!r}")
    if not (overrides is None or isinstance(overrides, dict)):
        raise ConfigurationError(f"overrides must be a mapping of sections, got {overrides!r}")
    # read, never written: deep_merge and normalize_config build new containers
    cfg = PROFILES[profile]
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = yaml.load(fh, Loader=_LOADER)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigurationError(
                f"cannot parse config file {path}: {_yaml_problem(exc)}"
            ) from exc
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


def _built(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), built from the config section (or key) `where`.
    A record's refusal starts with the name of the field it refuses, so the
    ConfigurationError it is re-raised as names where.field."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}.{exc}") from exc


def build_setup(cfg: dict) -> RunSetup:
    """Assemble the system model and default waveform from a normalized config."""
    wf = cfg["waveform"]
    tone_count = wf["tone_count"]
    tone_spacing = wf["tone_spacing"]
    # SystemModel checks it too, but default_sim_rate divides by it first
    if tone_spacing <= 0:
        raise ConfigurationError("waveform.tone_spacing must be positive")
    bandwidth = tone_count * tone_spacing

    rf_carrier = cfg["channel"]["rf_carrier"]
    # checked before the array's spacing, half a wavelength, can overflow
    if not rf_carrier > max(bandwidth, 0.0):
        raise ConfigurationError(
            f"channel.rf_carrier must exceed the baseband bandwidth {bandwidth}"
        )
    # only perfbench/workloads.py's computed_sizes reads the chain's sim_sample_rate
    sim_rate = default_sim_rate(rf_carrier, bandwidth, tone_spacing)

    chain = _built("chain", ChainConfig, **cfg["chain"], sim_sample_rate=sim_rate)
    geometry = _built("array", element_positions, **cfg["array"], carrier=rf_carrier)

    position = cfg["receiver"]["position"]
    if len(position) != 3:
        raise ConfigurationError("receiver.position must have three coordinates")
    receiver = ReceiverPosition(*position)

    rectenna, power, swarm = (
        _built(section, record, **cfg[section]) for section, record in _RECORDS.items()
    )

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
    tones = _built("waveform", ToneSet, np.asarray(amplitudes), np.asarray(phases), tone_spacing)
    if tones.count != tone_count:
        raise ConfigurationError(
            "waveform.amplitudes and waveform.phases must hold waveform.tone_count"
            f" = {tone_count} values"
        )
    word = _built("waveform.phase_word", PhaseWord, np.asarray(word_levels), chain.ps_bits)
    if word.count != system.element_count:
        raise ConfigurationError("waveform.phase_word must have one level per element")

    sweep = [(entry["path"], entry["values"]) for entry in cfg["sweep"]]
    return RunSetup(system, swarm, tones, word, sweep, cfg)
