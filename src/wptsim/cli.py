"""Command-line front end: single-shot simulation, optimization, and sweeps.

Output is either "structured" (a YAML-compatible document) or "table" (CSV
with a header row). Every floating-point value is printed with 9 significant
digits. Exit codes: 0 success, 2 infeasible optimum, 3 configuration error,
4 numerical failure.
"""

import argparse
import contextlib
import copy
import functools
import hashlib
import io
import itertools
import json
import sys

import numpy as np

from .config import build_setup, config_set, dump_config, load_config
from .errors import ConfigurationError, DomainError, NumericalError
from .optimizer import pso_run
from .simulation import evaluate_solution

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

_STAGE_ORDER = ("digital", "dac", "lpf", "mixer", "hpa", "received")
# sampled at chain.dac_sample_rate; the rest are complex envelopes around the
# carrier, n_env samples a period
_BASEBAND_STAGES = ("digital", "dac", "lpf")


def format_float(value: float) -> str:
    return f"{float(value):.9g}"


def _format_floats(values: list, sep: str) -> str:
    """Python floats as format_float writes each, joined by sep, in one % pass
    (the same text for every double, nan, ±inf and -0.0 included)."""
    return sep.join(["%.9g"] * len(values)) % tuple(values)


def _scalar(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if value is None:
        return "null"
    return json.dumps(str(value))


def emit_structured(data: dict, indent: int = 0) -> str:
    """Render a nested report as YAML-compatible structured text."""
    lines = []
    pad = "  " * indent
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(emit_structured(value, indent + 1))
        elif isinstance(value, (list, tuple)) and any(isinstance(v, dict) for v in value):
            lines.append(f"{pad}{key}:")
            for item in value:
                body = emit_structured(item, indent + 2).splitlines()
                lines.append(f"{pad}  - {body[0].strip()}")
                lines.extend(body[1:])
        elif isinstance(value, (list, tuple, np.ndarray)):
            array = np.asarray(value)
            if array.dtype.kind == "f" and array.ndim == 1:
                rendered = _format_floats(array.tolist(), ", ")
            else:
                rendered = ", ".join(_scalar(v) for v in array.tolist())
            lines.append(f"{pad}{key}: [{rendered}]")
        else:
            lines.append(f"{pad}{key}: {_scalar(value)}")
    return "\n".join(lines)


def _table_cell(value) -> str:
    text = _scalar(value)
    if text.startswith('"') or "," not in text:
        return text.strip()
    return json.dumps(text)


def emit_table(header: list[str], rows: list[list]) -> str:
    """Render rows as CSV with a fixed header."""
    buffer = io.StringIO()
    buffer.write(",".join(header) + "\n")
    for row in rows:
        buffer.write(",".join(_table_cell(cell) for cell in row) + "\n")
    return buffer.getvalue()


def _harvest_report(harvest) -> dict:
    return {
        "v_out_dc": harvest.v_out_dc,
        "p_out_dc": harvest.p_out_dc,
        "rhs_log": harvest.rhs_log,
    }


def _power_report(power) -> dict:
    return {
        "p_dac": power.p_dac,
        "p_mix": power.p_mix,
        "p_lo": power.p_lo,
        "p_hpa": power.p_hpa,
        "p_s": power.p_s,
        "p_total": power.p_total,
        "hpa_negative": power.hpa_negative,
    }


def _stage_report(samples: np.ndarray, sample_rate: float, domain: str) -> dict:
    """One period of a stage: its samples, and its spectrum over frequencies
    relative to DC (baseband) or to the carrier (envelope)."""
    n = samples.size
    freqs = np.fft.fftshift(np.fft.fftfreq(n, d=1.0 / sample_rate))
    return {
        "domain": domain,
        "sample_rate": sample_rate,
        "samples": n,
        "time_real": samples.real,
        "time_imag": samples.imag,
        "spectrum_frequency": freqs,
        "spectrum_magnitude": np.abs(np.fft.fftshift(np.fft.fft(samples))) / n,
    }


def cmd_simulate(setup) -> tuple[dict, int]:
    """Run the chain once and report per-stage series, harvest, and power."""
    outcome = evaluate_solution(setup.tones, setup.phase_word, setup.system)
    system = setup.system
    stages = {}
    for name in _STAGE_ORDER:
        if name in _BASEBAND_STAGES:
            domain, rate = "baseband-complex", system.chain.dac_sample_rate
        else:
            domain, rate = "envelope-complex", system.n_env * system.tone_spacing
        stages[name] = _stage_report(getattr(outcome.stages, name), rate, domain)
    report = {
        "command": "simulate",
        "tones": {
            "amplitudes": setup.tones.amplitudes,
            "phases": setup.tones.phases,
            "tone_spacing": setup.tones.tone_spacing,
        },
        "phase_word": setup.phase_word.levels,
        "harvest": _harvest_report(outcome.harvest),
        "power": _power_report(outcome.power),
        "stages": stages,
    }
    return report, EXIT_OK


def cmd_optimize(setup) -> tuple[dict, int]:
    """Run the swarm search and report the best solution found."""
    result = pso_run(setup.system, setup.swarm)
    resim = evaluate_solution(result.tones, result.phase_word, setup.system)
    report = {
        "command": "optimize",
        "seed": setup.swarm.seed,
        "feasible": result.feasible,
        "best_fitness": result.best_fitness,
        "evaluations": result.evaluations,
        "tones": {
            "amplitudes": result.tones.amplitudes,
            "phases": result.tones.phases,
            "tone_spacing": result.tones.tone_spacing,
        },
        "phase_word": result.phase_word.levels,
        "harvest": _harvest_report(resim.harvest),
        "power": _power_report(resim.power),
        "fitness_trace": result.fitness_trace,
    }
    return report, EXIT_OK if result.feasible else EXIT_INFEASIBLE


def derive_point_seed(seed: int, index: int) -> int:
    """Stable per-point seed so any sweep row can be reproduced alone."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def cmd_sweep(setup) -> tuple[dict, int]:
    """One optimize run per grid point of the configured sweep."""
    if not setup.sweep:
        raise ConfigurationError("sweep: config declares no sweep entries")
    paths = [path for path, _ in setup.sweep]
    value_lists = [values for _, values in setup.sweep]
    base_seed = setup.swarm.seed
    rows = []
    for index, combo in enumerate(itertools.product(*value_lists)):
        point_cfg = copy.deepcopy(setup.raw)
        point_seed = derive_point_seed(base_seed, index)
        row = {
            "index": index,
            "seed": point_seed,
            **{path: value for path, value in zip(paths, combo)},
            "p_total": None,
            "p_out_dc": None,
            "feasible": None,
            "best_fitness": None,
            "error": "",
        }
        try:
            # the derived seed first, so a swept swarm.seed overrides it
            config_set(point_cfg, "swarm.seed", point_seed)
            for path, value in zip(paths, combo):
                config_set(point_cfg, path, value)
            row["seed"] = point_cfg["swarm"]["seed"]
            point_setup = build_setup(point_cfg)
            result = pso_run(point_setup.system, point_setup.swarm)
            row["p_total"] = result.power.p_total
            row["p_out_dc"] = result.p_out_dc
            row["feasible"] = result.feasible
            row["best_fitness"] = result.best_fitness
        except (ConfigurationError, DomainError, NumericalError) as exc:
            row["error"] = str(exc)
        rows.append(row)
    report = {
        "command": "sweep",
        "paths": paths,
        "columns": ["index", "seed", *paths, "p_total", "p_out_dc", "feasible",
                    "best_fitness", "error"],
        "rows": rows,
    }
    return report, EXIT_OK


def _flatten_for_table(report: dict) -> tuple[list[str], list[list]]:
    """The rows of a sweep or optimize report."""
    if report["command"] == "sweep":
        header = report["columns"]
        rows = [[row[col] for col in header] for row in report["rows"]]
        return header, rows
    header = ["seed", "feasible", "best_fitness", "p_total", "p_out_dc",
              "v_out_dc", "evaluations"]
    row = [
        report["seed"],
        report["feasible"],
        report["best_fitness"],
        report["power"]["p_total"],
        report["harvest"]["p_out_dc"],
        report["harvest"]["v_out_dc"],
        report["evaluations"],
    ]
    return header, [row]


def _float_cells(values: np.ndarray) -> list[str]:
    return _format_floats(values.tolist(), "\n").split("\n") if values.size else []


def _emit_stage_table(stages: dict) -> str:
    """The simulate report's stage series as CSV, one row per sample and per
    spectrum bin: the text emit_table gives those rows, built a column at a time."""
    lines = ["stage,series,index,coordinate,value"]
    for stage in _STAGE_ORDER:
        data = stages[stage]
        time = np.arange(data["time_real"].size) / data["sample_rate"]
        for series, coordinates, values in (
            ("time_real", time, data["time_real"]),
            ("time_imag", time, data["time_imag"]),
            ("spectrum", data["spectrum_frequency"], data["spectrum_magnitude"]),
        ):
            prefix = f"{_table_cell(stage)},{_table_cell(series)}"
            lines.extend(
                f"{prefix},{i},{coordinate},{value}"
                for i, coordinate, value in zip(
                    range(values.size), _float_cells(coordinates), _float_cells(values)
                )
            )
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "structured":
        return emit_structured(report) + "\n"
    if report["command"] == "simulate":
        return _emit_stage_table(report["stages"])
    header, rows = _flatten_for_table(report)
    return emit_table(header, rows)


_DEFAULT_FORMAT = {"simulate": "structured", "optimize": "structured", "sweep": "table"}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="wptsim",
        description="Simulate and optimize a multi-tone wireless power transmitter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "run the transmit chain once and dump every stage"),
        ("optimize", "search waveform and beam settings for minimum power draw"),
        ("sweep", "one optimize run per configured parameter grid point"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", help="YAML config merged over the profile defaults")
        cmd.add_argument("--profile", choices=("paper", "desk"), default="desk")
        cmd.add_argument("--seed", type=int, help="override swarm.seed")
        cmd.add_argument("--out", help="output file (default: stdout)")
        cmd.add_argument("--format", choices=("table", "structured"), default=None)
        cmd.add_argument(
            "--dump-config", action="store_true",
            help="print the merged config instead of running",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _open_out(args.out) as out:
            cfg = load_config(args.config, args.profile)
            if args.seed is not None:
                config_set(cfg, "swarm.seed", args.seed)
            if args.dump_config:
                out.write(dump_config(cfg))
                return EXIT_OK
            setup = build_setup(cfg)
            command = {"simulate": cmd_simulate, "optimize": cmd_optimize, "sweep": cmd_sweep}
            report, code = command[args.command](setup)
            fmt = args.format or _DEFAULT_FORMAT[args.command]
            out.write(render_report(report, fmt))
        if code == EXIT_INFEASIBLE:
            print(
                "optimize: best solution is infeasible "
                f"(p_out_dc = {format_float(report['harvest']['p_out_dc'])} W)",
                file=sys.stderr,
            )
        return code
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _open_out(path):
    """The --out file, opened before the run so that a bad path fails before any work;
    stdout (left open) when no path is given."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot write output file {path}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
