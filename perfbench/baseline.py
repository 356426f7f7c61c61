"""Run every workload over several seeds and record the baseline.

    python3 perfbench/baseline.py --first-seed 1 --out perfbench/baseline.json

It runs every workload of BENCHMARK.json at SEEDS consecutive seeds from
--first-seed.  Each run is ``perfbench/run.py`` in a fresh interpreter with
the ``run_seconds`` of BENCHMARK.json.  For every end-to-end metric the script
reports the median and quartiles over the seeds and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound.
A spread above its bound (set-up time excepted) makes the exit status 1.
One traced run per workload at the first seed adds the per-layer metrics.
--out writes everything, with the machine block and the sha256 of every
output file of every run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402

RUN = str(Path(__file__).resolve().parent / "run.py")
SEEDS = 10


def run_once(workload, seed, seconds, trace):
    """(result object, report values, output digests) of one run.py invocation."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    report, digests = {}, {}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            report[parts[0]] = float(parts[1])
        elif line.startswith("# sha256 "):  # "# sha256 <job> <file>: <digest>"
            digests[f"{parts[2]} {parts[3].rstrip(':')}"] = parts[4]
    return json.loads(lines[-1]), report, digests


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None}


def main(argv=None):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seeds = range(args.first_seed, args.first_seed + SEEDS)
    runs = {w: [] for w in names}
    for seed in seeds:  # seed-major, so slow drift in load hits every workload
        for w in names:
            result, report, digests = run_once(w, seed, spec["run_seconds"], 0)
            runs[w].append({"seed": seed, "correct": result["correct"],
                            "attempted": result["attempted"], "failed": result["failed"],
                            "report": report, "sha256": digests})
            print(f"{w:9s} seed {seed:3d} correct={result['correct']} "
                  + " ".join(f"{k}={v:.4f}" for k, v in report.items()), flush=True)

    ok = True
    summary = {}
    for w, rs in runs.items():
        summary[w] = {}
        keys = sorted({k for r in rs for k in r["report"]})
        for key in keys:
            stats = spread([r["report"][key] for r in rs])
            summary[w][key] = stats
            bound = bounds.get(key)
            flag = ""
            if bound is not None:
                flag = f"bound {bound}"
                if key != "setup_s" and stats["spread"] > bound:
                    flag += "  OVER BOUND"
                    ok = False
            shown = "-" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"{w:9s} {key:18s} median {stats['median']:10.4f}  spread {shown}  {flag}")
        if not all(r["correct"] for r in rs):
            ok = False
            print(f"{w}: a run reported correct=false")

    traced = {}
    for w in names:
        result, _, _ = run_once(w, args.first_seed, spec["run_seconds"], 1)
        traced[w] = {"seed": args.first_seed, "correct": result["correct"],
                     "metrics": result["metrics"]}
        ok = ok and result["correct"]

    if args.out:
        record = {
            "machine": bench.machine_info(),
            "run_seconds": spec["run_seconds"],
            "seeds": list(seeds),
            "summary": summary,
            "runs": runs,
            "traced": traced,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
