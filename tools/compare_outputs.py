"""Compare two source trees' search and evaluation outputs bit for bit.

    python tools/compare_outputs.py PARENT_TREE CHANGE_TREE

Each tree's wptsim (its src/) runs these cases in an interpreter of its own:
19 brute-force grids, with each grid's transmit and receive counts; three
desk swarms of 30 particles and 200 iterations; and a 40-row evaluate_batch
on desk, the toy and K2-N3-B2. Every field of every result is compared by
type, dtype, shape and bytes, so +0.0 and -0.0 differ. One line is printed a
case, and the exit status is 1 if any case differs or fails on either tree.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# config overrides of each system, on the desk profile; KaNbBc is K = a
# tones, N = b elements and c-bit phase shifters
SYSTEMS = {
    "desk": {},
    "toy": {"waveform": {"tone_count": 1}, "array": {"rows": 1, "cols": 2},
            "chain": {"ps_bits": 1, "dac_bits": 8}},
    "K1-N4-B2": {"waveform": {"tone_count": 1}, "array": {"rows": 1, "cols": 4},
                 "chain": {"ps_bits": 2, "dac_bits": 8}},
    "K2-N2-B1": {"waveform": {"tone_count": 2}, "array": {"rows": 1, "cols": 2},
                 "chain": {"ps_bits": 1}},
    "K2-N3-B2": {"waveform": {"tone_count": 2}, "array": {"rows": 1, "cols": 3},
                 "chain": {"ps_bits": 2}},
    "K1-N7-B1": {"waveform": {"tone_count": 1}, "array": {"rows": 1, "cols": 7},
                 "chain": {"ps_bits": 1, "dac_bits": 8}},
}

# (system, amplitude points, phase points, amplitude_max, required_dc_power,
# GRID_CHUNK_SAMPLES or None for the module's own)
GRIDS = [
    *[("toy", 21, 16, amax, req, None) for amax in (300.0, 0.9, 1.0) for req in (20e-6, 0.0)],
    ("toy", 11, 23, 300.0, 20e-6, None),
    ("toy", 61, 40, 300.0, 20e-6, None),
    ("K1-N4-B2", 21, 16, 300.0, 20e-6, None),
    ("K1-N4-B2", 21, 16, 0.9, 20e-6, None),
    ("K2-N2-B1", 6, 5, 300.0, 20e-6, None),
    ("K2-N2-B1", 6, 5, 1.0, 20e-6, None),
    ("K2-N3-B2", 4, 4, 0.9, 20e-6, None),
    *[("K1-N7-B1", 3, 2, 300.0, req, bound) for bound in (None, 100) for req in (20e-6, 0.0)],
    *[("toy", 21, 16, 300.0, req, 21 * 80) for req in (20e-6, 0.0)],
]
SWARM_SEEDS = (1, 2, 7)
BATCH_SYSTEMS = ("desk", "toy", "K2-N3-B2")
BATCH_ROWS = 40
COUNTS = ("transmitted_rows", "received_rows")  # a grid objective's


def _fields(value, name=""):
    """Every leaf of a (nested) result record, by dotted field name."""
    if not dataclasses.is_dataclass(value):
        return {name: value}
    leaves = {}
    for field in dataclasses.fields(value):
        leaves.update(_fields(getattr(value, field.name), f"{name}.{field.name}".lstrip(".")))
    return leaves


def _encoded(value):
    array = np.asarray(value)
    return [type(value).__name__, array.dtype.str, list(array.shape), array.tobytes().hex()]


def _decoded(encoded):
    _, dtype, shape, data = encoded
    return np.frombuffer(bytes.fromhex(data), dtype).reshape(shape).tolist()


def _cases():
    """(name, function returning a dict of result leaves) for every case."""
    import wptsim
    import wptsim.optimizer

    setups = {}

    def setup(name):
        if name not in setups:
            config = wptsim.load_config(profile="desk", overrides=SYSTEMS[name])
            setups[name] = wptsim.build_setup(config)
        return setups[name]

    objectives = []
    init = wptsim.optimizer._GridObjective.__init__

    def keeping_init(self, *args):
        # *args: the constructor's signature differs between trees
        init(self, *args)
        objectives.append(self)

    wptsim.optimizer._GridObjective.__init__ = keeping_init

    def grid(system, amplitude_points, phase_points, amplitude_max, required, bound):
        run = setup(system)
        swarm = dataclasses.replace(
            run.swarm, amplitude_max=amplitude_max, required_dc_power=required
        )
        default = wptsim.optimizer.GRID_CHUNK_SAMPLES
        wptsim.optimizer.GRID_CHUNK_SAMPLES = bound or default
        try:
            result = wptsim.brute_force_grid(amplitude_points, phase_points, run.system, swarm)
        finally:
            wptsim.optimizer.GRID_CHUNK_SAMPLES = default
        objective = objectives.pop()
        return {**_fields(result), **{k: getattr(objective, k) for k in COUNTS}}

    def swarm_run(seed):
        run = setup("desk")
        return _fields(wptsim.pso_run(run.system, dataclasses.replace(run.swarm, seed=seed)))

    def batch(system):
        run = setup(system)
        tones, elements = run.system.tone_count, run.system.element_count
        rng = np.random.default_rng(11)
        # four and a half decades of drive, from far below a DAC step to deep
        # saturation
        scales = 10.0 ** rng.uniform(-3.0, 1.5, (BATCH_ROWS, 1))
        amplitudes = rng.random((BATCH_ROWS, tones)) * scales
        phases = rng.uniform(0.0, 2.0 * np.pi, (BATCH_ROWS, tones))
        levels = rng.integers(0, 2**run.system.chain.ps_bits, (BATCH_ROWS, elements))
        harvest, power = wptsim.evaluate_batch(amplitudes, phases, levels, run.system)
        return {**_fields(harvest, "harvest"), **_fields(power, "power")}

    for case in GRIDS:
        system, amplitude_points, phase_points, amplitude_max, required, bound = case
        name = (
            f"grid {system} {amplitude_points}x{phase_points} amplitude_max={amplitude_max:g}"
            f" required={required:g} bound={bound or 'default'}"
        )
        yield name, lambda case=case: grid(*case)
    for seed in SWARM_SEEDS:
        yield f"pso_run desk seed={seed}", lambda seed=seed: swarm_run(seed)
    for system in BATCH_SYSTEMS:
        yield f"evaluate_batch {system} {BATCH_ROWS} rows", lambda system=system: batch(system)


def dump() -> None:
    """Print one JSON line a case: its encoded result leaves, or its error."""
    for name, run in _cases():
        try:
            record = {"case": name, "fields": {k: _encoded(v) for k, v in run().items()}}
        except Exception as exc:  # noqa: BLE001 - a failing case is compared too
            record = {"case": name, "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(record), flush=True)


def _run_tree(tree: Path) -> dict:
    src = (tree / "src").resolve()
    if not (src / "wptsim").is_dir():
        sys.exit(f"{tree}: no src/wptsim")
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    check = "import wptsim; print(wptsim.__file__)"
    imported = subprocess.run(
        [sys.executable, "-c", check], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    if not Path(imported).resolve().is_relative_to(src):
        sys.exit(f"{tree}: imported wptsim from {imported}")
    done = subprocess.run(
        [sys.executable, __file__, "--dump"], env=env, capture_output=True, text=True
    )
    if done.returncode:
        sys.exit(f"{tree}: the cases failed to run\n{done.stderr}")
    records = (json.loads(line) for line in done.stdout.splitlines())
    return {record.pop("case"): record for record in records}


def main(argv) -> int:
    if argv == ["--dump"]:
        dump()
        return 0
    if len(argv) != 2:
        sys.exit(__doc__)
    parent, change = (_run_tree(Path(tree)) for tree in argv)
    names = [*parent, *(name for name in change if name not in parent)]
    differing = 0
    for name in names:
        old, new = parent.get(name), change.get(name)
        if old is None or new is None:
            verdict = f"only in the {'change' if old is None else 'parent'}"
        elif "error" in old or "error" in new:
            # a case that fails on both trees compared nothing
            verdict = f"FAILED: {old.get('error')} / {new.get('error')}"
        else:
            keys = old["fields"].keys() | new["fields"].keys()
            fields = sorted(k for k in keys if old["fields"].get(k) != new["fields"].get(k))
            verdict = f"DIFFERS in {', '.join(fields)}" if fields else "identical"
            verdict += "".join(
                f", {k.split('_')[0]} {_decoded(new['fields'][k])}" for k in COUNTS
                if k in new["fields"]
            )
        differing += not verdict.startswith("identical")
        print(f"{name}: {verdict}")
    print(f"{len(names)} cases, {differing} differing or failed")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
