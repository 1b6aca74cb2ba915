"""wptsim benchmark workloads, run one per fresh interpreter.

Each workload is a closed loop with a single caller: the next op starts when
the previous op and its output check have finished. Inputs come only from
`--seed`. The last stdout line is one JSON object with the op latencies, the
evaluation count, the failures and, with `--trace 1`, the per-layer values.

    PYTHONPATH=src python3 perfbench/workloads.py --workload paper-evaluate \
        --seed 1 --seconds 5 --trace 0

`perfbench/run.py` is the entry point that pins BLAS to one thread and adds
set-up timing; this module is its worker.
"""

import argparse
import bisect
import contextlib
import dataclasses
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy
import yaml

import wptsim
from wptsim import cli, optimizer, simulation
from wptsim.rectenna import solve_rectifier_equation
from wptsim.signal_chain import PhaseWord, ToneSet

import calibration
from setup_probe import CONFIGS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

PSO_ITERATIONS = 20  # 30 particles x 20 iterations, the ROADMAP's desk throughput case
GRID_AMPLITUDES, GRID_PHASES, GRID_EVALUATIONS = 21, 16, 1344
# parsing a 0.9 MB simulate report takes ~4x the command itself, so the whole
# document is parsed for the first command and every FULL_PARSE_EVERY-th one;
# every command gets the exit-code, header and p_out_dc checks
FULL_PARSE_EVERY = 8
KERNEL_SHARE = 0.05  # reference-kernel time per op time
SPEED_WINDOW_S = 0.5
V_OUT_TOLERANCE = 1e-9  # volts, the closed-form vs root-solver gap of criterion 02

# captured before any tracing wrapper exists, so output checks never run through one
reference_evaluate = simulation.evaluate_solution


def make_setup(workload: str, **overrides):
    profile, base = CONFIGS[workload]
    return wptsim.build_setup(wptsim.load_config(profile=profile, overrides={**base, **overrides}))


class Tally:
    """Ops attempted and failed, op latencies, and evaluations done inside ops.

    Between ops the reference kernel of calibration.py is sampled for about
    KERNEL_SHARE of the op time, so each op's time can be divided by the
    machine's slowdown around it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.ops = []  # (start, end, evaluations, latency samples)
        self.kernel = []  # (time, kernel seconds)
        self.digest = hashlib.sha256()
        self.work = {"iterations": 0, "grid_evaluations": 0, "commands": 0}
        self.output_bytes = []
        self.info = {}
        self._unsampled = 0.0

    def timed(self, start: float, evaluations: int, latencies=None) -> None:
        """One op from `start` to now, its evaluations and latency samples (default: the op)."""
        end = time.perf_counter()
        latencies = [end - start] if latencies is None else latencies
        self.ops.append((start, end, evaluations, latencies))
        self._unsampled += end - start

    def sample_speed(self, minimum: int = 0) -> None:
        count = max(minimum, min(25, round(KERNEL_SHARE * self._unsampled
                                           / calibration.REFERENCE_S)))
        if count:
            self._unsampled = 0.0
        for _ in range(count):
            self.kernel.append((time.perf_counter(), calibration.kernel_seconds()))

    def slowdowns(self) -> list:
        """Per op: median kernel time from SPEED_WINDOW_S before to after it, over REFERENCE_S.

        An op with fewer than five samples in that window takes the whole run's.
        """
        times = [t for t, _ in self.kernel]
        seconds = [k for _, k in self.kernel]
        factors = []
        for start, end, *_ in self.ops:
            nearby = seconds[bisect.bisect_left(times, start - SPEED_WINDOW_S):
                             bisect.bisect_right(times, end + SPEED_WINDOW_S)]
            if len(nearby) < 5:
                nearby = seconds
            factors.append(statistics.median(nearby) / calibration.REFERENCE_S)
        return factors

    def record(self, ops: int, problems: list) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            if len(self.errors) < 5:
                self.errors.append("; ".join(problems))

    def note(self, value: float) -> None:
        """Fold a model output into the informational digest."""
        self.digest.update(repr(float(value)).encode())


def checked(tally: Tally, ops: int, body) -> None:
    """Run one op and its check; an exception or any problem fails the op."""
    try:
        problems = body()
    except Exception as exc:  # noqa: BLE001 - any failure of the program is a failed op
        problems = [f"{type(exc).__name__}: {exc}"]
    tally.record(ops, problems)
    tally.sample_speed()


def penalised_fitness(outcome, swarm) -> float:
    p_out = outcome.harvest.p_out_dc
    if p_out >= swarm.required_dc_power:
        return outcome.power.p_total
    return swarm.penalty + (swarm.required_dc_power - p_out) / swarm.required_dc_power


def check_outcome(outcome, system) -> list:
    """Problems with one evaluation: finiteness, power sum, Lambert-W vs root solver."""
    harvest, power = outcome.harvest, outcome.power
    numbers = (harvest.v_out_dc, harvest.p_out_dc, harvest.rhs_log, power.p_dac, power.p_mix,
               power.p_lo, power.p_hpa, power.p_s, power.p_total)
    if not all(math.isfinite(v) for v in numbers):
        return [f"non-finite output {numbers}"]
    problems = []
    parts = power.p_dac + power.p_mix + power.p_lo + power.p_hpa + power.p_s
    if not math.isclose(power.p_total, parts, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"p_total {power.p_total!r} != sum of parts {parts!r}")
    oracle = solve_rectifier_equation(harvest.rhs_log, system.rectenna)
    if abs(harvest.v_out_dc - oracle) > V_OUT_TOLERANCE:
        problems.append(f"v_out_dc {harvest.v_out_dc!r} vs root solver {oracle!r}")
    expected_p = harvest.v_out_dc**2 / system.rectenna.load_resistance
    if not math.isclose(harvest.p_out_dc, expected_p, rel_tol=1e-12):
        problems.append(f"p_out_dc {harvest.p_out_dc!r} != v^2/R_L {expected_p!r}")
    return problems


def check_best(result, system, swarm) -> list:
    """The returned best re-simulates to its fitness."""
    outcome = reference_evaluate(result.tones, result.phase_word, system)
    problems = check_outcome(outcome, system)
    again = penalised_fitness(outcome, swarm)
    if not math.isclose(again, result.best_fitness, rel_tol=1e-12):
        problems.append(f"best re-simulates to {again!r}, reported {result.best_fitness!r}")
    return problems


def random_candidate(rng, system, swarm) -> tuple[ToneSet, PhaseWord]:
    bits = system.chain.ps_bits
    tones = ToneSet(
        rng.uniform(0.0, swarm.amplitude_max, system.tone_count),
        rng.uniform(0.0, 2.0 * np.pi, system.tone_count),
        system.tone_spacing,
    )
    return tones, PhaseWord(rng.integers(0, 2**bits, system.element_count), bits)


def desk_optimize(seed, seconds, tally, op) -> dict:
    """Op: one PSO iteration (30 particles) on desk, timed through pso_run's callback."""
    setup = make_setup("desk-optimize")
    system = setup.system
    base = dataclasses.replace(setup.swarm, iterations=PSO_ITERATIONS)
    optimizer.pso_run(system, dataclasses.replace(base, iterations=1, seed=seed))  # warm-up
    first_trace = None
    run = 0
    deadline = time.perf_counter() + seconds
    # runs 0 and 1 share a swarm seed: their traces must be identical
    while run < 2 or time.perf_counter() < deadline:
        swarm = dataclasses.replace(base, seed=seed * 100_000 + max(run - 1, 0))
        stamps = []

        def callback(iteration, positions, best):
            stamps.append((time.perf_counter(), best))

        def body():
            nonlocal first_trace
            start = time.perf_counter()
            with op():
                result = optimizer.pso_run(system, swarm, callback=callback)
            # the first callback also covers the initial swarm, so it opens no interval
            intervals = [b[0] - a[0] for a, b in zip(stamps, stamps[1:])]
            tally.timed(start, result.evaluations, intervals)
            tally.work["iterations"] += len(stamps)
            tally.note(result.best_fitness)
            trace = result.fitness_trace
            problems = check_best(result, system, swarm)
            if result.evaluations != swarm.particles * (swarm.iterations + 1):
                problems.append(f"{result.evaluations} evaluations")
            if trace.size != swarm.iterations + 1 or np.any(np.diff(trace) > 0):
                problems.append("fitness trace is not a non-increasing P*(I+1) record")
            if [best for _, best in stamps] != trace[1:].tolist():
                problems.append("callback best values disagree with the trace")
            if trace[-1] != result.best_fitness:
                problems.append("best_fitness is not the last trace entry")
            if run == 0:
                first_trace = trace
            elif run == 1 and not np.array_equal(trace, first_trace):
                problems.append("same seed gave a different fitness trace")
            return problems

        checked(tally, PSO_ITERATIONS, body)
        run += 1
    return {}


def paper_evaluate(seed, seconds, tally, op) -> dict:
    """Op: one serial evaluate_solution of a random candidate on the paper profile."""
    setup = make_setup("paper-evaluate")
    system = setup.system
    rng = np.random.default_rng(seed)
    for _ in range(3):  # warm-up
        reference_evaluate(*random_candidate(rng, system, setup.swarm), system)
    deadline = time.perf_counter() + seconds
    while tally.attempted == 0 or time.perf_counter() < deadline:
        tones, word = random_candidate(rng, system, setup.swarm)

        def body():
            start = time.perf_counter()
            with op():
                outcome = simulation.evaluate_solution(tones, word, system)
            tally.timed(start, 1)
            tally.note(outcome.harvest.p_out_dc)
            return check_outcome(outcome, system)

        checked(tally, 1, body)
    return {}


def toy_grid(seed, seconds, tally, op) -> dict:
    """Op: one brute_force_grid(21, 16) on the criterion-10 toy, receiver placed by the seed."""
    rng = np.random.default_rng(seed)
    position = [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(2.5, 3.5)), 0.0]
    setup = make_setup("toy-grid", receiver={"position": position})
    system, swarm = setup.system, setup.swarm
    optimizer.brute_force_grid(GRID_AMPLITUDES, GRID_PHASES, system, swarm)  # warm-up
    deadline = time.perf_counter() + seconds
    while tally.attempted == 0 or time.perf_counter() < deadline:

        def body():
            start = time.perf_counter()
            with op():
                result = optimizer.brute_force_grid(GRID_AMPLITUDES, GRID_PHASES, system, swarm)
            tally.timed(start, result.evaluations)
            tally.work["grid_evaluations"] += result.evaluations
            tally.note(result.best_fitness)
            problems = check_best(result, system, swarm)
            if result.evaluations != GRID_EVALUATIONS:
                problems.append(f"{result.evaluations} grid evaluations")
            return problems

        checked(tally, 1, body)
    return {"receiver": position}


def check_report(text: str, expected_p_out: float, full: bool) -> list:
    """The simulate report matches the in-process p_out_dc and parses as YAML."""
    header = text.split("\nstages:\n", 1)[0]
    printed = yaml.load(header, Loader=yaml.CSafeLoader)["harvest"]["p_out_dc"]
    problems = []
    if f"{printed:.9g}" != f"{expected_p_out:.9g}":
        problems.append(f"report p_out_dc {printed!r} vs in-process {expected_p_out!r}")
    if full:
        document = yaml.load(text, Loader=yaml.CSafeLoader)
        if sorted(document["stages"]) != ["dac", "digital", "hpa", "lpf", "mixer", "received"]:
            problems.append(f"report stages {sorted(document['stages'])}")
        if document["harvest"]["p_out_dc"] != printed:
            problems.append("full parse disagrees with the header")
    return problems


def paper_simulate(seed, seconds, tally, op) -> dict:
    """Op: one `wptsim simulate --profile paper` command on a random candidate file."""
    setup = make_setup("paper-simulate")
    rng = np.random.default_rng(seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="simulate-", dir=OUT_DIR))
    config, report = workdir / "candidate.yaml", workdir / "report.yaml"
    argv = ["simulate", "--profile", "paper", "--config", str(config), "--out", str(report),
            "--format", "structured"]

    def write_candidate():
        tones, word = random_candidate(rng, setup.system, setup.swarm)
        config.write_text(yaml.safe_dump({"waveform": {
            "amplitudes": tones.amplitudes.tolist(),
            "phases": tones.phases.tolist(),
            "phase_word": word.levels.tolist(),
        }}))

    try:
        write_candidate()
        cli.main(argv)  # warm-up
        deadline = time.perf_counter() + seconds
        while tally.attempted == 0 or time.perf_counter() < deadline:
            write_candidate()
            full = tally.attempted % FULL_PARSE_EVERY == 0

            def body():
                start = time.perf_counter()
                with op():
                    code = cli.main(argv)
                tally.timed(start, 1)
                tally.work["commands"] += 1
                if code != 0:
                    return [f"simulate exited {code}"]
                text = report.read_text(encoding="utf-8")
                tally.output_bytes.append(len(text.encode()))
                ref = wptsim.build_setup(wptsim.load_config(str(config), "paper"))
                outcome = reference_evaluate(ref.tones, ref.phase_word, ref.system)
                tally.note(outcome.harvest.p_out_dc)
                return check_report(text, outcome.harvest.p_out_dc, full)

            checked(tally, 1, body)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {}


WORKLOADS = {
    "desk-optimize": desk_optimize,
    "paper-evaluate": paper_evaluate,
    "toy-grid": toy_grid,
    "paper-simulate": paper_simulate,
}


def computed_sizes(workload: str) -> dict:
    """Array sizes implied by the workload's system model, not measured."""
    system = make_setup(workload).system
    samples = round(system.chain.sim_sample_rate / system.tone_spacing)
    return {
        "passband_samples": samples,
        "phase_shifters_bytes": system.element_count * samples * np.dtype(float).itemsize,
    }


def run(workload: str, seed: int, seconds: float, op=contextlib.nullcontext) -> Tally:
    tally = Tally()
    tally.info = WORKLOADS[workload](seed, seconds, tally, op)
    tally.sample_speed(minimum=5)
    return tally


def summary(tally: Tally) -> dict:
    """Raw op times, and the same divided by the machine's slowdown around each op."""
    slowdowns = tally.slowdowns()
    evaluations = sum(op[2] for op in tally.ops)
    op_time = sum(end - start for start, end, *_ in tally.ops)
    norm_op_time = sum((op[1] - op[0]) / f for op, f in zip(tally.ops, slowdowns))
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "latencies_s": [t for op in tally.ops for t in op[3]],
        "norm_latencies_s": [t / f for op, f in zip(tally.ops, slowdowns) for t in op[3]],
        "slowdown": statistics.median(slowdowns) if slowdowns else 1.0,
        "evaluations": evaluations,
        "evals_per_s": evaluations / op_time if op_time else 0.0,
        "norm_evals_per_s": evaluations / norm_op_time if norm_op_time else 0.0,
        "digest": tally.digest.hexdigest()[:16],
        "output_bytes": tally.output_bytes,
        "info": tally.info,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path(wptsim.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"imported wptsim from {wptsim.__file__}, not from this checkout's src/")

    if not args.trace:
        result = summary(run(args.workload, args.seed, args.seconds))
    else:
        from tracing import Tracer, layer_metrics

        # untraced first half, traced second half: their ratio is the tracing overhead
        untraced = run(args.workload, args.seed, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run(args.workload, args.seed, args.seconds / 2, tracer.op)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.jsonl.gz"
        tracer.write(spans_path)
        layers, absent = layer_metrics(tracer, traced.work)
        result = summary(traced)
        result.update(
            attempted=untraced.attempted + traced.attempted,
            failed=untraced.failed + traced.failed,
            errors=untraced.errors + traced.errors,
            untraced_norm_evals_per_s=summary(untraced)["norm_evals_per_s"],
            layers=layers,
            absent=absent,
            spans=len(tracer.spans),
            spans_file=str(spans_path.relative_to(ROOT)),
        )
    result["computed"] = computed_sizes(args.workload)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
