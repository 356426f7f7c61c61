"""Check that the seed drives the ensemble workload's outputs.

    python3 perfbench/selftest.py --seed 1

Runs the ensemble workload at --seed and at the next seed, and requires
every stochastic job to pass its check and to write different data rows at
the two seeds (the preamble echoes the seed, so only the rows after it are
compared).  Exits 1 on any violation.

That outputs do not change at a fixed seed is checked by run.py itself on
every run: --trace 0 compares each repetition's bytes with the first one,
and --trace 1 compares the traced runs at one and two threads with the
untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402


def body_digest(data):
    """sha256 of a CSV's data rows, without the preamble or header."""
    lines = [line for line in data.splitlines() if not line.startswith(b"#")]
    return hashlib.sha256(b"\n".join(lines[1:])).hexdigest()


def csv_bodies(seed, problems):
    """Job label -> digest of its CSV data rows, for one ensemble pass."""
    bodies = {}
    for res in bench.run_pass(bench.workload_jobs("ensemble", seed)):
        if res.problem:
            problems.append(f"ensemble {res.job.label} (seed {seed}): {res.problem}")
            continue
        with open(f"{res.job.out}.csv", "rb") as fh:
            bodies[res.job.label] = body_digest(fh.read())
    return bodies


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench.import_qfc()
    os.chdir(bench.ROOT)
    problems = []
    try:
        first = csv_bodies(args.seed, problems)
        second = csv_bodies(args.seed + 1, problems)
    finally:
        shutil.rmtree(bench.ROOT / bench.WORK, ignore_errors=True)
    # entangle labels carry their own seed, so pair jobs by position
    pairs = list(zip(first.items(), second.values()))
    for (label, a), b in pairs:
        if a == b:
            problems.append(f"ensemble {label}: seed {args.seed + 1} gives the same data rows")
    print(f"ensemble: seed {args.seed + 1} changes the data rows of "
          f"{sum(a != b for (_, a), b in pairs)} of {len(pairs)} jobs")
    for line in problems:
        print("FAILED " + line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
