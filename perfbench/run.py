"""wptsim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload desk-optimize --seed 1 --seconds 20 --trace 0

Run from a checkout that holds `src/wptsim`. The workload runs in a fresh
interpreter with BLAS pinned to one thread (perfbench/workloads.py); set-up is
timed in further fresh interpreters (perfbench/setup_probe.py). With
`--trace 0` the result holds the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics. The timed end-to-end metrics are taken at
the reference speed of calibration.py. A detail line with the machine facts,
sample counts, error rate, raw wall times and output digests precedes the
result line.
Exit status is 0 when a result was printed, and nonzero without a result when
the checkout has no wptsim sources or the workload process failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    # set-up is timed from compiled bytecode, as an installed package imports
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list, timeout: float) -> dict:
    """Run a perfbench script in a fresh interpreter; its last stdout line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args[0]} did not finish within {timeout} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: {args[0]} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts(versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **versions,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }


def quantile(values: list, q: int) -> float:
    """The q-th percentile, by statistics.quantiles' inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "wptsim" / "__init__.py").is_file():
        print(f"perfbench: no wptsim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    worker = run_child(
        [str(HERE / "workloads.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        timeout=2 * args.seconds + 40,
    )
    # after the worker, so its import has already compiled the sources
    probes = [run_child([str(HERE / "setup_probe.py"), "--workload", args.workload], 15)
              for _ in range(SETUP_PROBES)]

    def probe_median(key: str) -> float:
        return statistics.median(p[key] for p in probes)

    setup_times = [p["import_s"] + p["load_s"] + p["build_setup_s"] for p in probes]
    latencies = worker["norm_latencies_s"]
    if not latencies:
        print(f"perfbench: no op completed; first errors: {worker['errors']}", file=sys.stderr)
        return 1
    if args.trace:
        layers = dict(worker["layers"])
        layers.update({
            "signal_chain.passband_samples": worker["computed"]["passband_samples"],
            "signal_chain.phase_shifters_bytes": worker["computed"]["phase_shifters_bytes"],
            "cli.output_bytes": (statistics.mean(worker["output_bytes"])
                                 if worker["output_bytes"] else None),
            "init.import_s": probe_median("import_s"),
            "config.load_ms": 1e3 * probe_median("load_s"),
            "config.build_setup_ms": 1e3 * probe_median("build_setup_s"),
            "trace.untraced_evals_per_s": worker["untraced_norm_evals_per_s"],
            "trace.traced_evals_per_s": worker["norm_evals_per_s"],
            "trace.overhead_frac": (worker["untraced_norm_evals_per_s"]
                                    / worker["norm_evals_per_s"] - 1.0),
        })
        wanted = spec["per_layer"]
    else:
        layers = {
            "setup_s": statistics.median(t / p["slowdown"] for t, p in zip(setup_times, probes)),
            "evals_per_s": worker["norm_evals_per_s"],
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * quantile(latencies, 90),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]

    # a layer this workload does not exercise reads 0 and is listed as such
    absent = worker.get("absent", [])
    not_exercised = sorted(m["name"] for m in wanted
                           if layers.get(m["name"]) is None and m["name"] not in absent)
    metrics = {m["name"]: {"value": layers.get(m["name"]) or 0.0, "unit": m["unit"]}
               for m in wanted}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "error_rate": worker["failed"] / worker["attempted"],
        "errors": worker["errors"],
        "op_samples": len(latencies),
        "slowdown": worker["slowdown"],
        "raw": {
            "setup_s": statistics.median(setup_times),
            "evals_per_s": worker["evals_per_s"],
            "latency_p50_ms": 1e3 * statistics.median(worker["latencies_s"]),
            "latency_p90_ms": 1e3 * quantile(worker["latencies_s"], 90),
        },
        "evaluations": worker["evaluations"],
        "setup_samples": len(probes),
        "output_digest": worker["digest"],
        "workload_info": worker["info"],
        "machine": machine_facts(worker["versions"]),
    }
    if args.trace:
        detail.update(absent=absent, not_exercised=not_exercised,
                      spans=worker["spans"], spans_file=worker["spans_file"],
                      computed=["signal_chain.passband_samples",
                                "signal_chain.phase_shifters_bytes"])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
