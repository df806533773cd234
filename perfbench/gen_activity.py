"""Write a seeded activity CSV for the ingest workload.

Usage::

    python3 perfbench/gen_activity.py --users M --categories V --timestamps T \
        --drop FRACTION --seed N --output PATH

Every (timestamp, user) pair gets a uniform category, then each observation
is dropped independently with probability ``FRACTION``, so some timestamps
lack a user and ``ingest --missing-policy drop-row`` discards them. Prints
``kept=K``: the number of complete timestamps, which is the row count the
ingested trace must have. Runs in its own process so that its memory does not
count towards the peak RSS of the commands the benchmark times.
"""

from __future__ import annotations

import argparse

import numpy as np


def main() -> None:
    parser = argparse.ArgumentParser()
    for flag in ("--users", "--categories", "--timestamps", "--seed"):
        parser.add_argument(flag, type=int, required=True)
    parser.add_argument("--drop", type=float, required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    shape = (args.timestamps, args.users)
    categories = rng.integers(0, args.categories, size=shape)
    observed = rng.random(shape) >= args.drop

    with open(args.output, "w", encoding="ascii", newline="\n") as fh:
        fh.write("timestamp,user,category\n")
        for t, (row, seen) in enumerate(zip(categories.tolist(), observed.tolist())):
            fh.write("".join(
                f"{t},{u},{c}\n" for u, c in enumerate(row) if seen[u]
            ))
    print(f"kept={int(observed.all(axis=1).sum())}")


if __name__ == "__main__":
    main()
