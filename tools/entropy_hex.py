"""Print the exact subset entropies of the benchmark workloads, as float hex.

Usage, from the root of a checkout, after ``perfbench/run.py`` has written
its inputs to ``.perfbench-work/`` at the default seed::

    PYTHONPATH=src python3 tools/entropy_hex.py [--random 300] > kernel.json

For each workload, the trace-reading commands (``limits``, ``simulate``) run
in-process with ``JointDistribution._projection_entropy`` wrapped, so every
subset they query is recorded with its entropy. ``--random`` more subsets per
workload, drawn with a fixed seed, are then queried on a fresh distribution.
The output is one JSON object: workload -> sorted subset -> ``float.hex()``.
Run it against two checkouts' ``src/`` and compare the files to check that a
kernel change keeps every entropy bit-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from run import DEFAULT_SEED, SIZES, WORK, commands  # noqa: E402

from oppknow import JointDistribution, read_sample_table  # noqa: E402
from oppknow.cli import main  # noqa: E402


def workload_entropies(workload: str, extra: int) -> dict[str, str]:
    work = WORK / workload
    _, timed = commands(workload, SIZES[workload]["full"], DEFAULT_SEED, work)
    found: dict[tuple[int, ...], float] = {}
    kernel = JointDistribution._projection_entropy

    def recording(dist, key):
        found[key] = kernel(dist, key)
        return found[key]

    JointDistribution._projection_entropy = recording
    try:
        for command in timed:
            if command.args[0] in ("limits", "simulate"):
                with contextlib.redirect_stdout(io.StringIO()):
                    if main(command.args) != 0:
                        raise SystemExit(f"{workload}: {command.name} failed")
    finally:
        JointDistribution._projection_entropy = kernel

    dist = JointDistribution.from_samples(read_sample_table(work / "trace.csv"))
    rng = random.Random(DEFAULT_SEED)
    users = range(dist.user_count)
    for _ in range(extra):
        key = tuple(sorted(rng.sample(users, rng.randint(1, dist.user_count))))
        found.setdefault(key, dist.subset_entropy(key))
    return {",".join(map(str, key)): found[key].hex() for key in sorted(found)}


def cli() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--random", type=int, default=300,
                        help="random subsets queried per workload")
    args = parser.parse_args()
    result = {workload: workload_entropies(workload, args.random) for workload in SIZES}
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    print()
    for workload, values in result.items():
        print(f"{workload}: {len(values)} subsets", file=sys.stderr)


if __name__ == "__main__":
    cli()
