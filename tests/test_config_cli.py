import functools
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
import wptsim.cli
import wptsim.config
import wptsim.simulation
from wptsim import ConfigurationError
from wptsim.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    _scalar,
    build_parser,
    cmd_optimize,
    cmd_simulate,
    cmd_sweep,
    derive_point_seed,
    emit_structured,
    format_float,
    main,
    render_report,
)
from wptsim.config import (
    _TABLE,
    build_setup,
    config_set,
    dump_config,
    load_config,
    normalize_config,
)


def _walk_numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _walk_numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _walk_numbers(value)
    elif isinstance(node, float):
        yield node


class TestConfig:
    def test_profiles_load_and_build(self):
        for profile in ("paper", "desk"):
            setup = build_setup(load_config(profile=profile))
            assert setup.system.tone_count == 8
            assert setup.system.element_count == 25
        assert build_setup(load_config(profile="paper")).system.chain.carrier == 5.18e9
        assert build_setup(load_config(profile="desk")).system.chain.carrier == 80e6

    def test_round_trip_identity(self, tmp_path):
        cfg = load_config(profile="desk")
        path = tmp_path / "run.yaml"
        path.write_text(dump_config(cfg))
        again = load_config(path, profile="desk")
        assert again == cfg
        # and once more through the serializer
        path.write_text(dump_config(again))
        assert load_config(path, profile="desk") == again

    def test_exponent_strings_coerce_to_floats(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("rectenna:\n  saturation_current: 5e-6\n")
        cfg = load_config(path, profile="desk")
        assert cfg["rectenna"]["saturation_current"] == 5e-6

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_config({"chain": {"dca_bits": 3}})
        with pytest.raises(ConfigurationError):
            normalize_config({"mystery": {}})

    def test_sweep_path_must_exist(self):
        with pytest.raises(ConfigurationError):
            load_config(
                profile="desk",
                overrides={"sweep": [{"path": "chain.nope", "values": [1]}]},
            )

    def test_sweep_values_must_be_nonempty(self):
        with pytest.raises(ConfigurationError):
            load_config(profile="desk", overrides={"sweep": [{"path": "chain.dac_bits", "values": []}]})

    def test_config_set(self):
        cfg = load_config(profile="desk")
        config_set(cfg, "chain.dac_bits", 5)
        assert cfg["chain"]["dac_bits"] == 5
        with pytest.raises(ConfigurationError):
            config_set(cfg, "chain.nope", 5)

    def test_u64_seed_survives_coercion_exactly(self):
        cfg = load_config(profile="desk")
        big = 16913293725829135181  # not representable as a double
        config_set(cfg, "swarm.seed", big)
        assert cfg["swarm"]["seed"] == big

    def test_physical_invariants_checked_at_build(self):
        for chain in (
            {"dac_bits": 0},
            {"ps_insertion_loss_db": -0.5},
            {"dac_bits": 54},
            {"ps_bits": 54},
        ):
            cfg = load_config(profile="desk", overrides={"chain": chain})
            with pytest.raises(ConfigurationError, match="chain"):
                build_setup(cfg)
        widest = {"chain": {"dac_bits": 53, "ps_bits": 53}}
        build_setup(load_config(profile="desk", overrides=widest))

    @pytest.mark.parametrize(
        "path",
        [
            f"{section}.{key}"
            for section, fields in _TABLE.items()
            for key, (kind, _) in fields.items()
            if kind in (float, (list, float))
        ],
    )
    def test_non_finite_float_leaves_rejected(self, path):
        section, key = path.split(".")
        is_list = _TABLE[section][key][0] == (list, float)
        cfg = load_config(profile="paper")
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match=re.escape(path)):
                config_set(cfg, path, [1.0, x] if is_list else x)

    def test_default_waveform_fills_in(self):
        setup = build_setup(load_config(profile="desk"))
        # 0.95 of the 1 V DAC range, off the 3-bit DAC's rounding boundary
        assert np.all(setup.tones.amplitudes == 0.95)
        assert np.all(setup.tones.phases == 0.0)
        assert np.all(setup.phase_word.levels == 0)


def _source_env() -> dict:
    """The environment that lets a child interpreter import this checkout's wptsim."""
    src = str(Path(wptsim.cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}


@pytest.fixture(params=["CSafeLoader", "SafeLoader"])
def yaml_loader(request, monkeypatch):
    """Config files parsed by libyaml's loader, then by PyYAML's pure-Python one."""
    loader = getattr(yaml, request.param, None)
    if loader is None:
        pytest.skip("PyYAML was built without libyaml")
    monkeypatch.setattr(wptsim.config, "_LOADER", loader)
    return loader


@pytest.mark.usefixtures("yaml_loader")
class TestConfigFileLoaders:
    def test_round_trip_identity(self, tmp_path):
        cfg = load_config(profile="paper")
        path = tmp_path / "run.yaml"
        path.write_text(dump_config(cfg))
        assert load_config(path, profile="desk") == cfg

    def test_exponent_only_literal_is_a_float(self, tmp_path):
        # YAML 1.1 reads 5e-6 (no dot) as a string; coercion makes it the float
        path = tmp_path / "run.yaml"
        path.write_text("rectenna:\n  saturation_current: 5e-6\n")
        assert load_config(path, profile="desk")["rectenna"]["saturation_current"] == 5e-6

    def test_seed_past_int64_is_exact(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(f"swarm:\n  seed: {2**63 + 1}\n")
        assert load_config(path, profile="desk")["swarm"]["seed"] == 2**63 + 1

    def test_null_document_keeps_the_profile(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("null\n")
        assert load_config(path, profile="paper") == load_config(profile="paper")

    def test_infinite_leaf_exits_three(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text("chain:\n  hpa_gain: .inf\n")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: chain.hpa_gain: expected a finite number, got inf\n"
        )

    def test_malformed_file_exits_three(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text("chain:\n  dac_bits: [3, 4\n")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot parse config file {path}: ")


def test_config_files_parse_with_libyaml_when_pyyaml_has_it(tmp_path, monkeypatch):
    # the pure-Python scanner is about 8x slower on a candidate file, so a
    # silent fallback to it is a failure, not only a slower benchmark
    loaders = []
    original = yaml.load

    def spy(stream, Loader):
        loaders.append(Loader)
        return original(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    path = tmp_path / "run.yaml"
    path.write_text("swarm:\n  seed: 5\n")
    load_config(path, profile="desk")
    assert loaders == [yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader]


class TestFormatting:
    def test_nine_significant_digits(self):
        assert format_float(math.pi) == "3.14159265"
        assert format_float(1.23456789012e-7) == "1.23456789e-07"
        assert format_float(300.0) == "300"

    def test_numpy_bools_render_as_booleans(self):
        assert _scalar(np.bool_(True)) == "true"
        assert _scalar(np.bool_(False)) == "false"
        assert emit_structured({"feasible": np.bool_(True)}) == "feasible: true"

    @settings(max_examples=200, deadline=None)
    @given(
        array=st.one_of(
            *(
                hnp.arrays(
                    dtype,
                    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
                    elements=st.one_of(
                        st.floats(width=width),
                        st.sampled_from(edges),
                    ),
                )
                for dtype, width, edges in (
                    (np.float64, 64, [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                                      -2.2e-308, 1e308, -1e308, 1.7976931348623157e308]),
                    (np.float32, 32, [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-45,
                                      -1.1754942e-38, 3.4028235e38]),
                )
            ),
            hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=1, min_side=0)),
            hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=1, min_side=0)),
            hnp.arrays(hnp.unicode_string_dtypes(), hnp.array_shapes(min_dims=1, max_dims=1)),
            hnp.arrays(np.complex128, hnp.array_shapes(min_dims=1, max_dims=1)),
            hnp.arrays(
                object,
                hnp.array_shapes(min_dims=1, max_dims=1),
                elements=st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                                   st.text(max_size=4)),
            ),
        )
    )
    def test_array_text_matches_the_per_scalar_reference(self, array):
        for value in (array, array.tolist()):
            assert emit_structured({"x": value}) == reference.emit_structured({"x": value})

    @pytest.mark.parametrize("fmt", ["structured", "table"])
    @pytest.mark.parametrize(
        "command", ["simulate-desk", "simulate-paper", "optimize", "sweep"]
    )
    def test_reports_match_the_per_scalar_reference(self, command, fmt):
        report = _report(command)
        text, expected = render_report(report, fmt), reference.render_report(report, fmt)
        if text != expected:
            # pytest's own diff of two 200 kB strings takes minutes
            line = next(i for i, pair in enumerate(zip(text.splitlines(), expected.splitlines()))
                        if pair[0] != pair[1])
            pytest.fail(f"{len(text)} vs {len(expected)} bytes; line {line} differs:\n"
                        f"{text.splitlines()[line]}\n{expected.splitlines()[line]}")


@functools.cache
def _report(command: str) -> dict:
    if command.startswith("simulate-"):
        profile = command.removeprefix("simulate-")
        return cmd_simulate(build_setup(load_config(profile=profile)))[0]
    swarm = {"seed": 3, "particles": 4, "iterations": 3}
    if command == "optimize":
        return cmd_optimize(build_setup(load_config(profile="desk", overrides={"swarm": swarm})))[0]
    sweep = [{"path": "chain.dac_bits", "values": [2, 0]}]
    overrides = {"swarm": swarm, "sweep": sweep}
    return cmd_sweep(build_setup(load_config(profile="desk", overrides=overrides)))[0]


class TestSimulateCommand:
    def test_report_structure_and_recomputation(self):
        setup = build_setup(load_config(profile="desk"))
        report, code = cmd_simulate(setup)
        assert code == EXIT_OK
        assert set(report["stages"]) == {"digital", "dac", "lpf", "mixer", "hpa", "received"}
        from wptsim import evaluate_solution

        outcome = evaluate_solution(setup.tones, setup.phase_word, setup.system)
        assert report["power"]["p_total"] == outcome.power.p_total
        assert report["harvest"]["p_out_dc"] == outcome.harvest.p_out_dc

    def test_structured_output_is_yaml_and_finite(self):
        setup = build_setup(load_config(profile="desk"))
        report, _ = cmd_simulate(setup)
        text = render_report(report, "structured")
        parsed = yaml.safe_load(text)
        assert parsed["command"] == "simulate"
        for number in _walk_numbers(parsed):
            assert math.isfinite(number)

    def test_table_output_schema(self):
        setup = build_setup(load_config(profile="desk"))
        report, _ = cmd_simulate(setup)
        lines = render_report(report, "table").splitlines()
        assert lines[0] == "stage,series,index,coordinate,value"
        assert len(lines) > 100

    def test_coarse_dac_stage_dumps_show_filtering(self):
        # K=8, n_b=2, B=3, N=25: DAC spills out of band, LPF clears it
        setup = build_setup(load_config(profile="desk", overrides={"chain": {"dac_bits": 2}}))
        report, _ = cmd_simulate(setup)
        bw = setup.system.bandwidth
        dac = report["stages"]["dac"]
        out_band = np.abs(np.asarray(dac["spectrum_frequency"])) > bw
        assert np.asarray(dac["spectrum_magnitude"])[out_band].max() > 1e-6
        lpf = report["stages"]["lpf"]
        out_band = np.abs(np.asarray(lpf["spectrum_frequency"])) > bw
        assert np.asarray(lpf["spectrum_magnitude"])[out_band].max() < 1e-14

    def test_chain_runs_once(self, monkeypatch):
        # wrap run_chain wherever a wptsim module looks it up
        calls = []
        original = wptsim.simulation.run_chain

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (wptsim.simulation, wptsim.cli):
            if hasattr(module, "run_chain"):
                monkeypatch.setattr(module, "run_chain", counted)
        cmd_simulate(build_setup(load_config(profile="desk")))
        assert len(calls) == 1

    def test_zero_amplitude_tones_give_zero_stages(self):
        setup = build_setup(
            load_config(profile="desk", overrides={"waveform": {"amplitudes": [0.0] * 8}})
        )
        report, _ = cmd_simulate(setup)
        assert report["harvest"]["p_out_dc"] == 0.0
        for stage in report["stages"].values():
            series = stage.get("time", stage.get("time_real"))
            assert np.all(np.asarray(series) == 0.0)


class TestOptimizeCommand:
    def _setup(self, seed=1, particles=6, iterations=4, **extra):
        overrides = {"swarm": {"seed": seed, "particles": particles, "iterations": iterations}}
        overrides.update(extra)
        return build_setup(load_config(profile="desk", overrides=overrides))

    def test_feasible_run_exits_zero(self):
        report, code = cmd_optimize(self._setup(iterations=10))
        assert code == EXIT_OK
        assert report["feasible"] is True or report["feasible"] == True  # noqa: E712
        assert report["harvest"]["p_out_dc"] >= 20e-6

    def test_infeasible_run_exits_two(self):
        # an unreachable requirement forces the infeasible exit path
        setup = self._setup(swarm={"seed": 1, "particles": 4, "iterations": 2,
                                   "required_dc_power": 1.0})
        report, code = cmd_optimize(setup)
        assert code == EXIT_INFEASIBLE
        assert report["feasible"] is False

    def test_zero_requirement_trivially_feasible(self):
        setup = self._setup(swarm={"seed": 1, "particles": 4, "iterations": 2,
                                   "required_dc_power": 0.0})
        report, code = cmd_optimize(setup)
        assert code == EXIT_OK
        assert report["feasible"] is True

    def test_same_seed_identical_output_files(self, tmp_path):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        for out in (out_a, out_b):
            code = main([
                "optimize", "--profile", "desk", "--seed", "42", "--out", str(out),
                "--config", str(_tiny_swarm_config(tmp_path)),
            ])
            assert code == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()


def _tiny_swarm_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text("swarm:\n  particles: 6\n  iterations: 8\n")
    return path


class TestSweepCommand:
    def _sweep_setup(self, values, seed=3):
        return build_setup(
            load_config(
                profile="desk",
                overrides={
                    "swarm": {"seed": seed, "particles": 4, "iterations": 3},
                    "sweep": [{"path": "chain.dac_bits", "values": values}],
                },
            )
        )

    def test_rows_ordered_and_schema_stable(self):
        report, code = cmd_sweep(self._sweep_setup([2, 3]))
        assert code == EXIT_OK
        assert report["columns"] == [
            "index", "seed", "chain.dac_bits", "p_total", "p_out_dc",
            "feasible", "best_fitness", "error",
        ]
        assert [row["chain.dac_bits"] for row in report["rows"]] == [2, 3]
        assert [row["index"] for row in report["rows"]] == [0, 1]

    def test_single_point_sweep_matches_optimize(self):
        seed = 3
        report, _ = cmd_sweep(self._sweep_setup([3], seed=seed))
        row = report["rows"][0]
        point_seed = derive_point_seed(seed, 0)
        assert row["seed"] == point_seed
        opt_setup = build_setup(
            load_config(
                profile="desk",
                overrides={"swarm": {"seed": point_seed, "particles": 4, "iterations": 3}},
            )
        )
        opt_report, _ = cmd_optimize(opt_setup)
        assert row["p_total"] == opt_report["power"]["p_total"]
        assert row["best_fitness"] == opt_report["best_fitness"]

    def test_failures_recorded_in_row_and_sweep_continues(self):
        report, code = cmd_sweep(self._sweep_setup([3, 0]))
        assert code == EXIT_OK
        good, bad = report["rows"]
        assert good["error"] == ""
        assert good["p_total"] is not None
        assert bad["error"] != ""
        assert bad["p_total"] is None

    def test_oversized_swarm_recorded_in_row(self):
        # 10^9 particles would allocate hundreds of GiB at the first draw
        overrides = {
            "swarm": {"seed": 3, "iterations": 3},
            "sweep": [{"path": "swarm.particles", "values": [4, 1_000_000_000]}],
        }
        report, code = cmd_sweep(build_setup(load_config(profile="desk", overrides=overrides)))
        assert code == EXIT_OK
        good, bad = report["rows"]
        assert good["error"] == "" and good["p_total"] is not None
        assert "swarm.particles" in bad["error"] and bad["p_total"] is None

    def test_csv_rendering(self):
        report, _ = cmd_sweep(self._sweep_setup([2, 3]))
        lines = render_report(report, "table").splitlines()
        assert lines[0].startswith("index,seed,chain.dac_bits,")
        assert len(lines) == 3

    def test_structured_rendering_parses(self):
        report, _ = cmd_sweep(self._sweep_setup([2, 3]))
        parsed = yaml.safe_load(render_report(report, "structured"))
        assert [row["chain.dac_bits"] for row in parsed["rows"]] == [2, 3]
        assert parsed["command"] == "sweep"

    def test_sweep_without_entries_is_config_error(self):
        setup = build_setup(load_config(profile="desk"))
        with pytest.raises(ConfigurationError):
            cmd_sweep(setup)

    def test_multi_path_sweep_is_cartesian_in_order(self):
        setup = build_setup(
            load_config(
                profile="desk",
                overrides={
                    "swarm": {"seed": 5, "particles": 4, "iterations": 2},
                    "sweep": [
                        {"path": "chain.dac_bits", "values": [2, 3]},
                        {"path": "array.rows", "values": [1, 5]},
                    ],
                },
            )
        )
        report, code = cmd_sweep(setup)
        assert code == EXIT_OK
        combos = [(row["chain.dac_bits"], row["array.rows"]) for row in report["rows"]]
        assert combos == [(2, 1), (2, 5), (3, 1), (3, 5)]
        assert all(row["error"] == "" for row in report["rows"])

    def test_swept_seed_is_the_seed_used(self, tmp_path):
        # a sweep of swarm.seed runs each point at the swept seed, as
        # optimize --seed would, and records that seed in the row
        config = tmp_path / "toy.yaml"
        config.write_text(yaml.safe_dump({
            "waveform": {"tone_count": 1},
            "array": {"rows": 1, "cols": 2},
            "chain": {"ps_bits": 1, "dac_bits": 8},
            "swarm": {"particles": 6, "iterations": 5},
            "sweep": [{"path": "swarm.seed", "values": [5, 5, 6]}],
        }))
        out = tmp_path / "sweep.yaml"
        argv = ["--config", str(config), "--format", "structured", "--out", str(out)]
        assert main(["sweep", *argv]) == EXIT_OK
        rows = yaml.safe_load(out.read_text())["rows"]
        assert [row["seed"] for row in rows] == [row["swarm.seed"] for row in rows] == [5, 5, 6]
        assert main(["optimize", "--seed", "5", *argv]) == EXIT_OK
        optimized = yaml.safe_load(out.read_text())
        assert optimized["seed"] == 5
        for row in rows[:2]:
            assert row["best_fitness"] == optimized["best_fitness"]
            assert row["p_total"] == optimized["power"]["p_total"]
        assert rows[2]["best_fitness"] != rows[0]["best_fitness"]

    def test_point_seeds_are_stable(self):
        assert derive_point_seed(1, 0) == derive_point_seed(1, 0)
        assert derive_point_seed(1, 0) != derive_point_seed(1, 1)
        assert derive_point_seed(1, 0) != derive_point_seed(2, 0)


class TestMainEntryPoint:
    def test_bad_config_exits_three(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("chain:\n  dac_bits: 0\n")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG

    def test_unreadable_config_exits_three(self):
        assert main(["simulate", "--config", "/no/such/file.yaml"]) == EXIT_CONFIG

    def test_config_that_is_not_utf8_exits_three(self, tmp_path, capsys):
        path = tmp_path / "binary.yaml"
        path.write_bytes(b"\xff\xfe")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read config file")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exits_three_before_the_run(self, tmp_path, capsys, monkeypatch, where):
        def run_started(cfg):
            raise AssertionError("the run started before --out was opened")

        monkeypatch.setattr(wptsim.cli, "build_setup", run_started)
        out = tmp_path / "missing" / "r.yaml" if where == "missing-directory" else tmp_path
        assert main(["sweep", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write output file {out}")
        assert err.count("\n") == 1

    def test_failed_run_leaves_the_out_file_empty(self, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text("chain:\n  dac_bits: 0\n")
        out = tmp_path / "report.yaml"
        out.write_text("an earlier report\n")
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert out.read_text() == ""

    @pytest.mark.parametrize(
        "text, flags, key",
        [
            ("waveform:\n  tone_spacing: 1.0e-300\n", [], "tone spacing"),
            (
                "waveform:\n  tone_spacing: 1.0e-300\nchain:\n  sim_sample_rate: 225.0e6\n",
                [],
                "waveform.tone_spacing",
            ),
            ("swarm:\n  seed: -1\n", [], "seed"),
            ("", ["--seed", "-1"], "seed"),
            ("chain:\n  hpa_gain: .inf\n", [], "chain.hpa_gain"),
            ("chain:\n  dac_range: .nan\n", [], "chain.dac_range"),
            ("rectenna:\n  load_resistance: .nan\n", [], "rectenna.load_resistance"),
            ("power:\n  mixer_power: .inf\n", [], "power.mixer_power"),
            ("receiver:\n  position: [.nan, 3.0, 0.0]\n", [], "receiver.position"),
            ("waveform:\n  amplitudes: [1, 1, 1, .inf, 1, 1, 1, 1]\n", [], "waveform.amplitudes"),
            ("swarm:\n  amplitude_max: .inf\n", [], "swarm.amplitude_max"),
            ("chain:\n  dac_bits: .inf\n", [], "chain.dac_bits"),
            ("swarm:\n  particles: .inf\n", [], "swarm.particles"),
            ("swarm:\n  particles: 1000000000\n", [], "swarm.particles"),
            ("chain:\n  ps_insertion_loss_db: 4000\n", [], "ps_insertion_loss_db"),
            ("chain:\n  dac_bits: 4000\n", [], "dac_bits"),
            ("chain:\n  ps_bits: 70\n", [], "ps_bits"),
            ("chain:\n  dac_bits: 40\n", [], "swarm.penalty"),
            ("chain:\n  dac_sample_rate: 100.3e6\n", [], "dac_sample_rate"),
            ("waveform:\n  tone_spacing: 1.0e-200\n", [], "waveform.tone_spacing"),
            ("waveform:\n  tone_spacing: 1.0e-3\n", [], "waveform.tone_spacing"),
            (
                "waveform:\n  tone_count: 200000\nchain:\n  dac_sample_rate: 5.0e+11\n"
                "  sim_sample_rate: 1.25e+12\n  carrier: 3.125e+11\n"
                "channel:\n  rf_carrier: 1.0e+12\n",
                [],
                "waveform.tone_count",
            ),
            (
                "waveform:\n  tone_count: 30000\nchain:\n  dac_sample_rate: 7.5e+10\n"
                "  carrier: 1.0e+11\nchannel:\n  rf_carrier: 1.0e+12\n",
                [],
                "waveform.tone_count",
            ),
            ("waveform:\n  tone_count: 0\n", [], "waveform.tone_count"),
            ("channel:\n  rf_carrier: 5.0e+6\n", [], "channel.rf_carrier"),
            ("receiver:\n  position: [0.0, 0.0, 0.0]\n", [], "receiver.position"),
            ("receiver:\n  position: [0.0, 1.0e+300, 0.0]\n", [], "receiver.position"),
            ("receiver:\n  position: [0.0, 1.0e+305, 0.0]\n", [], "receiver.position"),
            ("array:\n  rows: 1000\n  cols: 1000\n", [], "array.rows x array.cols"),
            ("array:\n  rows: 3000\n  cols: 3000\n", [], "array.rows x array.cols"),
            ("array:\n  rows: 100000\n  cols: 100000\n", [], "array.rows x array.cols"),
        ],
        ids=[
            "spacing-default-rate", "spacing-explicit-rate", "config-seed", "flag-seed",
            "hpa-gain-inf", "dac-range-nan", "load-resistance-nan", "mixer-power-inf",
            "position-nan", "amplitude-inf", "amplitude-max-inf", "dac-bits-inf",
            "particles-inf", "particles-batch-bound",
            "insertion-loss-overflow", "dac-bits-overflow", "ps-bits-overflow",
            "penalty-below-dac-power", "dac-rate-not-multiple", "spacing-1e-200-samples-bound",
            "spacing-1e-3-samples-bound", "tone-count-synthesis-bound",
            "tone-count-envelope-bound", "tone-count-zero",
            "rf-carrier-below-bandwidth", "receiver-on-element", "receiver-distance-overflow",
            "receiver-phase-overflow", "array-channel-bound",
            "array-3000-squared", "array-100000-squared",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_invalid_values_exit_three_with_one_line(self, tmp_path, capsys, text, flags, key):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["optimize", "--config", str(path), *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize(
        "text",
        [
            "chain:\n  sim_sample_rate: 180.0e6\n",
            "chain:\n  dac_sample_rate: 1.0e+9\n",
            "chain:\n  sim_sample_rate: 180000000.625\n",
            "chain:\n  carrier: 80.3e6\n",
            "chain:\n  carrier: 10.0e6\n",
        ],
        ids=[
            "nyquist-boundary", "dac-rate-above-sim-rate", "nyquist-off-multiple",
            "carrier-off-the-grid", "carrier-at-the-bandwidth",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_reference_only_keys_run(self, tmp_path, capsys, text):
        # chain.sim_sample_rate and chain.carrier only place the tests'
        # passband reference, which checks its own plan; the chain reads neither
        path = tmp_path / "reference-only.yaml"
        path.write_text(text)
        argv = ["simulate", "--profile", "desk", "--config", str(path)]
        assert main([*argv, "--out", str(tmp_path / "r.yaml")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_synthesis_grid_within_the_budget_runs(self, tmp_path, capsys):
        # 1024 tones at 2048 DAC samples a period; H_band is 25 x 2049
        text = (
            "waveform:\n  tone_count: 1024\n"
            "chain:\n  dac_sample_rate: 2.56e+9\n  carrier: 2.56e+9\n"
        )
        path = tmp_path / "wide.yaml"
        path.write_text(text)
        system = build_setup(load_config(path)).system
        assert system.band_coefficients.shape == (25, 2049)
        assert main(["simulate", "--config", str(path)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_1024_tones_optimize_with_default_particles(self, tmp_path, capsys):
        # 30 particles x 49152 envelope samples is one batch of about 110 MB
        path = tmp_path / "wide.yaml"
        path.write_text(
            "waveform:\n  tone_count: 1024\n"
            "chain:\n  dac_sample_rate: 2.56e+9\n  carrier: 2.56e+9\n"
            "swarm:\n  iterations: 1\n"
        )
        assert build_setup(load_config(path)).swarm.particles == 30
        out = tmp_path / "r.yaml"
        code = main(["optimize", "--config", str(path), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        assert "error" not in capsys.readouterr().err
        assert yaml.safe_load(out.read_text())["command"] == "optimize"

    def test_2048_tones_run(self, tmp_path, capsys):
        # 2048 tones at 4096 DAC samples a period; H_band is 25 x 4097
        path = tmp_path / "wider.yaml"
        path.write_text(
            "waveform:\n  tone_count: 2048\n"
            "chain:\n  dac_sample_rate: 5.12e+9\n  carrier: 5.12e+9\n"
        )
        out = tmp_path / "r.yaml"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_dump_config_round_trips(self, tmp_path, capsys):
        assert main(["simulate", "--profile", "desk", "--dump-config"]) == EXIT_OK
        text = capsys.readouterr().out
        assert yaml.safe_load(text)["chain"]["dac_bits"] == 3

    def test_simulate_writes_output_file(self, tmp_path):
        out = tmp_path / "report.yaml"
        assert main(["simulate", "--profile", "desk", "--out", str(out)]) == EXIT_OK
        parsed = yaml.safe_load(out.read_text())
        assert parsed["command"] == "simulate"

    def test_parser_is_built_once_and_not_at_import(self):
        assert build_parser() is build_parser()
        probe = "import wptsim.cli as c; print(c.build_parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
            env=_source_env(),
        )
        assert proc.stdout == "0\n"

    def test_console_script_smoke(self, tmp_path):
        # a source checkout has no console script: run the module with its src on the path
        command, env = ["wptsim"], None
        if shutil.which("wptsim") is None:
            command, env = [sys.executable, "-m", "wptsim.cli"], _source_env()
        proc = subprocess.run(
            [*command, "simulate", "--profile", "desk", "--format", "structured"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0
        assert yaml.safe_load(proc.stdout)["command"] == "simulate"
        # numpy warnings reach a real stderr, which capsys does not see
        bad = tmp_path / "bad.yaml"
        bad.write_text("chain:\n  hpa_gain: .inf\n")
        proc = subprocess.run(
            [*command, "simulate", "--config", str(bad)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.splitlines() == [
            "configuration error: chain.hpa_gain: expected a finite number, got inf"
        ]
        # a finite gain that overflows in the amplifier fails as that stage
        bad.write_text("chain:\n  hpa_gain: 1.0e+308\n")
        proc = subprocess.run(
            [*command, "optimize", "--config", str(bad)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == EXIT_NUMERICAL
        (line,) = proc.stderr.splitlines()
        assert line.startswith("numerical failure: hpa stage failed: overflow")
