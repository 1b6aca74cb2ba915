"""Benchmark two source trees in alternating pairs of runs.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N --seconds S

Each pair runs `perfbench/run.py --workload W --seed 1 --seconds S` once in
each tree, and the tree that runs first alternates from pair to pair, so a
drift in the host's speed falls on both alike. For every end-to-end metric
of the parent's BENCHMARK.json it prints the median and quartiles of each
tree's runs, the pairs the change wins, the change of the medians, whether
that change is within the metric's bound, and whether it is a gain beyond
the parent's interquartile range. It prints the failed and attempted ops of
each tree too. The exit status is 1 if a metric is worse than the parent's
by more than its bound, an op failed or a run gave no result.

Make both trees the same way, say each commit's `git archive` in a new
directory: paper-simulate has read about 3% apart between two long-lived
checkouts of equivalent code.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 1


def run_once(tree: Path, workload: str, seconds: float) -> dict | None:
    """One perfbench result line of tree, or None if the run gave none."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        print(f"{tree}: no result (exit {done.returncode})\n{done.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for name in order:
            result = run_once(trees[name], args.workload, args.seconds)
            if result is None:
                return 1
            results[name].append(result)
            value = result["metrics"]["latency_p50_ms"]["value"]
            print(f"pair {pair + 1} {name}: p50 {value:.4g} ms", file=sys.stderr, flush=True)

    ok = True
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, median [quartiles]")
    for name, runs in results.items():
        failed, attempted = (sum(r[key] for r in runs) for key in ("failed", "attempted"))
        ok &= failed == 0
        print(f"  {name}: {failed} of {attempted} ops failed")
    for metric in spec["end_to_end"]:
        key, lower_is_better = metric["name"], metric["better"] == "lower"
        parent, change = ([r["metrics"][key]["value"] for r in results[name]]
                          for name in ("parent", "change"))
        (p_low, p_med, p_high), (c_low, c_med, c_high) = quartiles(parent), quartiles(change)
        wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
        relative = c_med / p_med - 1.0 if p_med else 0.0
        worse = relative if lower_is_better else -relative
        within = worse <= metric["bound"]
        gain = (p_med - c_med if lower_is_better else c_med - p_med) > p_high - p_low
        ok &= within
        print(
            f"  {key} ({metric['unit']}, {metric['better']} is better):"
            f" {p_med:.4g} [{p_low:.4g}, {p_high:.4g}] -> {c_med:.4g} [{c_low:.4g}, {c_high:.4g}],"
            f" {relative:+.1%}, change wins {wins} of {args.pairs},"
            f" {'within' if within else 'BEYOND'} the {metric['bound']:.0%} bound,"
            f" {'a' if gain else 'no'} gain beyond the parent's interquartile range"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
