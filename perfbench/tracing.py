"""Traced mode: wrap wptsim's public functions from outside and derive per-layer metrics.

Wrappers replace each name where its caller looks it up (for instance
`wptsim.simulation.upconvert`, which `run_chain` reads from its own module),
so wptsim itself is unchanged. Spans are recorded only inside an op opened by
the benchmark, which keeps the benchmark's own output checks out of the
numbers. A target that no longer exists is reported as absent and every metric
reading it is marked absent instead of failing the run.
"""

import functools
import gzip
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

OP = "op"


def _count_feasible(tracer, result):
    tracer.counts["feasible"] += bool(result.feasible)


# (module, attribute, span name, observer of the return value)
SPAN_TARGETS = (
    ("wptsim.simulation", "synthesize_multitone", "signal_chain.synth", None),
    ("wptsim.simulation", "quantize_dac", "signal_chain.dac", None),
    ("wptsim.simulation", "lowpass_filter", "signal_chain.lpf", None),
    ("wptsim.simulation", "upconvert", "signal_chain.mixer", None),
    ("wptsim.simulation", "rapp_amplifier", "signal_chain.hpa", None),
    ("wptsim.simulation", "apply_phase_shifters", "signal_chain.phase_shifters", None),
    ("wptsim.simulation", "received_signal", "channel.received", None),
    ("wptsim.simulation", "harvest_from_signal", "rectenna.harvest", None),
    ("wptsim.simulation", "total_power", "power_model.total", None),
    ("wptsim.simulation", "run_chain", "simulation.run_chain", None),
    ("wptsim.simulation", "evaluate_solution", "simulation.evaluate", None),
    ("wptsim.optimizer", "evaluate_solution", "simulation.evaluate", None),
    ("wptsim.optimizer", "evaluate_candidate", "optimizer.evaluate_candidate", _count_feasible),
    ("wptsim.optimizer", "decode_particle", "optimizer.decode", None),
    ("wptsim.optimizer", "pso_run", "optimizer.pso_run", None),
    ("wptsim.optimizer", "brute_force_grid", "optimizer.grid", None),
    ("wptsim.cli", "run_chain", "simulation.run_chain", None),
    ("wptsim.cli", "evaluate_solution", "simulation.evaluate", None),
    ("wptsim.cli", "render_report", "cli.render", None),
)

# (module, attribute path, counter name): calls counted without a span
COUNT_TARGETS = (
    ("wptsim.signal_chain", "SampledSignal.__post_init__", "sampled_signals"),
    ("wptsim.channel", "ChannelMatrix.coefficients_at", "coefficients_calls"),
    ("wptsim.rectenna", "lambert_w0_log", "lambert_calls"),
)


class Tracer:
    """Spans (name, start, end, parent index) and call counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = set()
        self._stack = []
        self._restore = []

    def install(self) -> None:
        installed = set()
        for module, attribute, name, observe in SPAN_TARGETS:
            if self._replace(module, attribute, lambda fn, n=name, o=observe: self._span(fn, n, o)):
                installed.add(name)
        for module, attribute, name in COUNT_TARGETS:
            if self._replace(module, attribute, lambda fn, n=name: self._counter(fn, n)):
                installed.add(name)
        # a name wrapped at several lookup sites is absent only when all are gone
        targets = {t[2] for t in SPAN_TARGETS} | {t[2] for t in COUNT_TARGETS}
        self.absent = targets - installed

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _replace(self, module, path, make_wrapper) -> bool:
        """Wrap `module.path` in place; False when it does not exist."""
        *owners, attribute = path.split(".")
        try:
            owner = importlib.import_module(module)
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            return False
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, functools.wraps(original)(make_wrapper(original)))
        return True

    @contextmanager
    def op(self):
        """Root span of one benchmark op; wrappers record only inside one."""
        index = self._open(OP)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _span(self, fn, name, observe):
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        def wrapper(*args, **kwargs):
            if self._stack:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> tuple[dict, dict, Counter]:
        """Per span name: summed duration, summed self time, and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - covered
            calls[name] += 1
        return total, own, calls

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start_s": round(start - origin, 9),
                    "end_s": round(end - origin, 9),
                    "parent": parent,
                }) + "\n")


EVAL = "simulation.evaluate"  # the per-evaluation denominator
# metric -> spans and counters it reads; a missing one marks the metric absent
METRIC_SOURCES = {
    "signal_chain.synth_us": ("signal_chain.synth", EVAL),
    "signal_chain.dac_us": ("signal_chain.dac", EVAL),
    "signal_chain.lpf_us": ("signal_chain.lpf", EVAL),
    "signal_chain.mixer_us": ("signal_chain.mixer", EVAL),
    "signal_chain.hpa_us": ("signal_chain.hpa", EVAL),
    "signal_chain.phase_shifters_us": ("signal_chain.phase_shifters", EVAL),
    "signal_chain.sampled_signals_per_eval": ("sampled_signals", EVAL),
    "channel.received_us": ("channel.received", EVAL),
    "channel.coefficients_calls_per_eval": ("coefficients_calls", EVAL),
    "rectenna.harvest_us": ("rectenna.harvest", EVAL),
    "rectenna.lambert_calls_per_eval": ("lambert_calls", EVAL),
    "power_model.total_us": ("power_model.total", EVAL),
    "simulation.evaluate_us": (EVAL,),
    "simulation.glue_us": ("simulation.run_chain", EVAL),
    "optimizer.swarm_self_us_per_iter": ("optimizer.pso_run", "optimizer.evaluate_candidate"),
    "optimizer.decode_us": ("optimizer.decode",),
    "optimizer.feasible_frac": ("optimizer.evaluate_candidate",),
    "optimizer.grid_self_us_per_eval": ("optimizer.grid", "optimizer.evaluate_candidate"),
    "cli.chain_runs_per_command": ("simulation.run_chain",),
    "cli.render_ms": ("cli.render",),
}


def layer_metrics(tracer: Tracer, work: dict) -> tuple[dict, list]:
    """Per-layer values from the spans, and the metrics marked absent.

    `work` gives what the benchmark itself counted: `iterations` of pso_run,
    `grid_evaluations` and `commands`. Every time is per evaluation (one
    `evaluate_solution` span) unless its name says otherwise. A value is None
    when the workload does not exercise that layer.
    """
    total, own, calls = tracer.totals()
    evals = calls[EVAL]

    def per(amount, count, scale=1.0):
        return amount / count * scale if count else None

    values = {
        "signal_chain.synth_us": per(own["signal_chain.synth"], evals, 1e6),
        "signal_chain.dac_us": per(own["signal_chain.dac"], evals, 1e6),
        "signal_chain.lpf_us": per(own["signal_chain.lpf"], evals, 1e6),
        "signal_chain.mixer_us": per(own["signal_chain.mixer"], evals, 1e6),
        "signal_chain.hpa_us": per(own["signal_chain.hpa"], evals, 1e6),
        "signal_chain.phase_shifters_us": per(own["signal_chain.phase_shifters"], evals, 1e6),
        "signal_chain.sampled_signals_per_eval": per(tracer.counts["sampled_signals"], evals),
        "channel.received_us": per(own["channel.received"], evals, 1e6),
        "channel.coefficients_calls_per_eval": per(tracer.counts["coefficients_calls"], evals),
        "rectenna.harvest_us": per(own["rectenna.harvest"], evals, 1e6),
        "rectenna.lambert_calls_per_eval": per(tracer.counts["lambert_calls"], evals),
        "power_model.total_us": per(own["power_model.total"], evals, 1e6),
        "simulation.evaluate_us": per(total[EVAL], evals, 1e6),
        "simulation.glue_us": per(own[EVAL] + own["simulation.run_chain"], evals, 1e6),
        "optimizer.swarm_self_us_per_iter": per(own["optimizer.pso_run"], work["iterations"], 1e6),
        "optimizer.decode_us": per(total["optimizer.decode"], calls["optimizer.decode"], 1e6),
        "optimizer.feasible_frac": per(
            tracer.counts["feasible"], calls["optimizer.evaluate_candidate"]
        ),
        "optimizer.grid_self_us_per_eval": per(
            own["optimizer.grid"], work["grid_evaluations"], 1e6
        ),
        "cli.chain_runs_per_command": per(calls["simulation.run_chain"], work["commands"]),
        "cli.render_ms": per(total["cli.render"], work["commands"], 1e3),
    }
    absent = sorted(m for m, deps in METRIC_SOURCES.items() if tracer.absent.intersection(deps))
    for metric in absent:
        values[metric] = None
    return values, absent
