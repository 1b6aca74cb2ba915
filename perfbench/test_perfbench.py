"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py

The smoke runs start fresh interpreters (one workload process and the set-up
probes each), so the file takes about two minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    detail = json.loads(detail_line)["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["error_rate"] == 0.0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        assert detail["absent"] == []
        assert detail["spans"] > 0


def _tampered(evaluate):
    def tampered(*args):
        outcome = evaluate(*args)
        # frozen dataclass: bypass its own sum check to fake a corrupt result
        object.__setattr__(outcome.power, "p_total", outcome.power.p_total * (1 + 1e-6))
        return outcome

    return tampered


def test_tampered_p_total_counts_as_failed_op(monkeypatch):
    monkeypatch.setattr(workloads.simulation, "evaluate_solution",
                        _tampered(workloads.reference_evaluate))
    tally = workloads.run("paper-evaluate", seed=1, seconds=0.1)
    assert tally.attempted >= 1
    assert tally.failed == tally.attempted
    assert "p_total" in tally.errors[0]


def test_op_times_divide_by_the_kernel_slowdown_around_each_op():
    tally = workloads.Tally()
    ref = calibration.REFERENCE_S
    tally.kernel = [(t / 10, ref) for t in range(5)] + [(10 + t / 10, 2 * ref) for t in range(5)]
    tally.ops = [(0.5, 0.6, 3, [0.1]), (10.5, 10.6, 3, [0.1])]
    assert tally.slowdowns() == [1.0, 2.0]
    result = workloads.summary(tally)
    assert result["norm_latencies_s"] == pytest.approx([0.1, 0.05])
    assert result["norm_evals_per_s"] == pytest.approx(6 / 0.15)
    assert result["evals_per_s"] == pytest.approx(6 / 0.2)


def test_tampered_report_counts_as_failed_check():
    setup = workloads.make_setup("paper-simulate")
    outcome = workloads.reference_evaluate(setup.tones, setup.phase_word, setup.system)
    p_out = outcome.harvest.p_out_dc
    text = f"command: simulate\nharvest:\n  p_out_dc: {p_out:.9g}\nstages:\n  digital: {{}}\n"
    assert workloads.check_report(text, p_out, full=False) == []
    assert workloads.check_report(text, p_out * (1 + 1e-8), full=False)


def test_missing_public_function_is_reported_absent(monkeypatch):
    renamed = tuple(
        (module, "no_such_stage" if name == "signal_chain.hpa" else attr, name, observe)
        for module, attr, name, observe in tracing.SPAN_TARGETS
    )
    monkeypatch.setattr(tracing, "SPAN_TARGETS", renamed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tally = workloads.run("paper-evaluate", seed=1, seconds=0.05, op=tracer.op)
    finally:
        tracer.uninstall()
    values, absent = tracing.layer_metrics(tracer, tally.work)
    assert absent == ["signal_chain.hpa_us"]
    assert values["signal_chain.hpa_us"] is None
    assert values["signal_chain.mixer_us"] > 0
    assert values["signal_chain.sampled_signals_per_eval"] > 0


def test_uninstall_restores_every_wrapped_name():
    import wptsim.signal_chain
    import wptsim.simulation

    before = (wptsim.simulation.upconvert, wptsim.signal_chain.SampledSignal.__post_init__)
    tracer = tracing.Tracer()
    tracer.install()
    assert wptsim.simulation.upconvert is not before[0]
    tracer.uninstall()
    assert (wptsim.simulation.upconvert,
            wptsim.signal_chain.SampledSignal.__post_init__) == before


def test_refuses_to_run_without_wptsim_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper-evaluate", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
