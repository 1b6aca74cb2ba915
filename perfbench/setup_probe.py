"""Time wptsim's set-up in a fresh interpreter.

Set-up is `import wptsim`, then `load_config` and `build_setup` for one
workload's profile. Prints one JSON object with the three parts, in seconds:

    PYTHONPATH=src python3 perfbench/setup_probe.py --workload paper-evaluate

Only the standard library is imported before the timer starts, so numpy,
scipy and yaml are charged to the import, as a user's first command pays them.
Afterwards the reference kernel of calibration.py gives the machine's slowdown.
"""

import argparse
import json
import time

TOY_OVERRIDES = {
    "waveform": {"tone_count": 1},
    "array": {"rows": 1, "cols": 2},
    "chain": {"ps_bits": 1, "dac_bits": 8},
    "swarm": {"particles": 20, "iterations": 50, "seed": 1},
}

# workload -> (profile, config overrides); shared with workloads.py
CONFIGS = {
    "desk-optimize": ("desk", {}),
    "paper-evaluate": ("paper", {}),
    "toy-grid": ("desk", TOY_OVERRIDES),
    "paper-simulate": ("paper", {}),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(CONFIGS), required=True)
    profile, overrides = CONFIGS[parser.parse_args().workload]

    start = time.perf_counter()
    import wptsim

    imported = time.perf_counter()
    cfg = wptsim.load_config(profile=profile, overrides=overrides)
    loaded = time.perf_counter()
    wptsim.build_setup(cfg)
    built = time.perf_counter()

    import statistics

    import calibration

    print(json.dumps({
        "slowdown": statistics.median(calibration.kernel_seconds() for _ in range(25))
        / calibration.REFERENCE_S,
        "import_s": imported - start,
        "load_s": loaded - imported,
        "build_setup_s": built - loaded,
    }))


if __name__ == "__main__":
    main()
