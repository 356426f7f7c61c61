"""Run one qfc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from the checkout's src/.

--trace 0 measures set-up time (median over fresh interpreters that import
qfc.cli), then repeats the workload's job list at one thread, the CLI
default, until --seconds is used, and reports the median CPU and wall time
per repetition and the peak resident memory.  The first repetition is a
warm-up: it is checked but left out of the medians, and at least MIN_REPS
timed repetitions follow it.  --trace 1 runs the job list once as a
warm-up, once untraced, once traced at one thread and once traced at two
threads, and reports the per-layer metrics.  Every repetition must write
the same bytes as the first one, and the traced runs the same bytes as the
untraced one; a job that raises, exits non-zero, fails its check or changes
its bytes counts as failed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it are a readable report:
every metric with its unit, the per-study times, the workload's input
properties, the sha256 of every output file and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_SPAWNS = 5
MIN_REPS = 2  # timed repetitions after the warm-up

STUDIES = ["spin_collapse", "sme_run", "purify", "entangle", "julia",
           "stabilize", "lyapunov"]


def declared_metrics():
    """(end-to-end, per-layer) name -> unit maps, in BENCHMARK.json order."""
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


# Printed in every report beside the declared metrics.
REPORT_UNITS = {"wall_s": "s", "failed_fraction": "ratio",
                **{f"{study}_s": "s" for study in STUDIES}}


# ---------------------------------------------------------------------------
# set-up


def import_times(stderr):
    """Cumulative seconds of the outermost scipy, mpmath and qfc imports.

    -X importtime prints each module after its children, one line each,
    indented two spaces per nesting level.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, name.strip(), int(cumulative)))
    totals = {}
    for prefix in ("scipy", "mpmath", "qfc"):
        def hit(mod):
            return mod == prefix or mod.startswith(prefix + ".")
        stack, total = [], 0
        for level, name, cumulative in reversed(entries):  # parents first
            del stack[level:]
            if hit(name) and not any(hit(a) for a in stack):
                total += cumulative
            stack.append(name)
        totals[prefix] = total * 1e-6
    return totals


def measure_setup(qfc, n, importtime):
    """Wall time of n fresh interpreters importing qfc.cli."""
    src = str(Path(qfc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", "import qfc.cli"]
    seconds, imports = [], []
    for _ in range(n):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=bench.ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        seconds.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"import qfc.cli failed: {proc.stderr.strip()}")
        if importtime:
            imports.append(import_times(proc.stderr))
    return seconds, imports


# ---------------------------------------------------------------------------
# passes


def pass_seconds(results):
    return sum(r.seconds for r in results)


def pass_cpu_seconds(results):
    return sum(r.cpu_s for r in results)


def study_seconds(results, study):
    return sum(r.seconds for r in results if r.job.study == study)


def compare_bytes(reference, results, what):
    """Flag every job whose hashes differ from the reference pass."""
    for ref, res in zip(reference, results):
        if res.problem is None and res.hashes != ref.hashes:
            res.problem = f"output bytes differ from {what}"


def run_untraced(jobs, seconds):
    """Every repetition, the warm-up first.

    The first repetition in a process ran 20-40% slower than the rest on the
    raster workload, and whether it fell in the middle of four or five
    repetitions moved the median by up to 15%.
    """
    start = perf_counter()
    reps = [bench.run_pass(jobs)]
    while True:
        t0 = perf_counter()
        reps.append(bench.run_pass(jobs))
        last = perf_counter() - t0
        compare_bytes(reps[0], reps[-1], "the first repetition")
        if len(reps) > MIN_REPS and perf_counter() - start + last > seconds:
            return reps


def run_traced(jobs):
    """(warm-up, untraced pass, [(tracer, traced pass)] at one and two threads).

    The untraced pass follows a warm-up, as in run_untraced, so that the
    traced-minus-untraced overhead does not absorb the first pass's slowness.
    """
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "qfc" or name.startswith("qfc.")}
    warmup = bench.run_pass(jobs)
    untraced = bench.run_pass(jobs)
    compare_bytes(warmup, untraced, "the warm-up")
    runs = []
    for threads in (bench.THREADS, bench.POOL_THREADS):
        tracer = Tracer()
        tracer.install(modules)
        try:
            results = bench.run_pass(jobs, threads=threads, tracer=tracer)
        finally:
            tracer.uninstall()
        compare_bytes(untraced, results, "the untraced run")
        runs.append((tracer, results))
    return warmup, untraced, runs


# ---------------------------------------------------------------------------
# metrics


def prop_sum(results, key, study=None):
    return sum(r.props.get(key, 0) for r in results
               if study is None or r.job.study == study)


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(jobs, untraced, runs, imports):
    (tr, traced), (tr_pool, _) = runs
    m = {}
    for mod in ("scipy", "mpmath", "qfc"):
        m[f"import.{mod}.s"] = statistics.median(i[mod] for i in imports)

    calls, secs = tr.counter_totals("sme.sme_step")
    m["sme.sme_step.calls"], m["sme.sme_step.s"] = calls, secs
    m["sme.sme_step.us_per_call"] = 1e6 * ratio(secs, calls)
    for name in ("stochastic.RngStream", "stochastic.RngStream.wiener"):
        m[f"{name}.calls"], m[f"{name}.s"] = tr.counter_totals(name)
    m["stochastic.run_ensemble.self_s"] = tr.span_totals("stochastic.run_ensemble")[2]

    m["sme.run_dephasing_ensemble.s"] = tr.span_totals("sme.run_dephasing_ensemble")[1]
    m["sme.run_dephasing_ensemble.traj_steps"] = prop_sum(traced, "traj_steps", "sme_run")
    m["purification.mc_nofeedback_impurity.s"] = \
        tr.span_totals("purification.mc_nofeedback_impurity")[1]
    m["purification.mc_nofeedback_impurity.traj_steps"] = \
        prop_sum(traced, "traj_steps", "purify")
    name = "purification.nofeedback_impurity"
    m[f"{name}.calls"], m[f"{name}.s"] = tr.counter_totals(name)

    entangle_jobs = {j.label for j in jobs if j.study == "entangle"}
    calls, secs, _ = tr.span_totals("entanglement.entangle_protocol")
    m["entanglement.entangle_protocol.calls"] = calls
    m["entanglement.entangle_protocol.s"] = secs
    clips = tr.counter_totals("entanglement.clip_psd")[0]
    m["entanglement.clip_psd.calls"] = clips
    m["entanglement.clip_psd.repair_ratio"] = ratio(
        clips, tr.counter_totals("sme.sme_step", entangle_jobs)[0])
    m["entanglement.budget_failures"] = len(budget_seeds(traced))

    secs = tr.span_totals("chaos.julia_raster")[1]
    m["chaos.julia_raster.s"] = secs
    pixel_iters = prop_sum(traced, "pixel_iters")
    m["chaos.julia_raster.pixel_iters"] = pixel_iters
    m["chaos.julia_raster.needed_iter_fraction"] = ratio(
        prop_sum(traced, "needed_iters"), pixel_iters)
    julias = [r for r in traced if r.job.study == "julia"]
    m["chaos.julia_raster.settled_share"] = ratio(
        sum(r.props.get("settled_share", 0.0) for r in julias), len(julias))
    m["chaos.julia_raster.thread_speedup"] = ratio(
        secs, tr_pool.span_totals("chaos.julia_raster")[1])

    secs = tr.span_totals("chaos.lyapunov_estimate")[1]
    steps = prop_sum(traced, "steps", "lyapunov")
    m["chaos.lyapunov_estimate.s"] = secs
    m["chaos.lyapunov_estimate.steps"] = steps
    m["chaos.lyapunov_estimate.ms_per_step"] = 1e3 * ratio(secs, steps)
    m["stabilization.gap_surface.s"] = tr.span_totals("stabilization.gap_surface")[1]

    m["output.write_csv.s"] = tr.span_totals("output.write_csv")[1]
    m["output.write_csv.rows"] = prop_sum(traced, "csv_rows")
    m["output.write_csv.bytes"] = prop_sum(traced, "csv_bytes")
    m["output.write_pgm.s"] = tr.span_totals("output.write_pgm")[1]
    m["output.write_pgm.bytes"] = prop_sum(traced, "pgm_bytes")
    m["output.format_value.calls"], m["output.format_value.s"] = \
        tr.counter_totals("output.format_value")
    m["cli.main.self_s"] = tr.span_totals("cli.main")[2]

    base = pass_seconds(untraced)
    m["trace.overhead_s"] = pass_seconds(traced) - base
    m["trace.overhead_share"] = ratio(m["trace.overhead_s"], base)
    for study in STUDIES:
        m[f"{study}_s"] = study_seconds(untraced, study)
    return m


def budget_seeds(results):
    return [r.job.label for r in results
            if r.job.study == "entangle" and r.problem and "horizon" in r.problem]


# ---------------------------------------------------------------------------
# report


def input_properties(results):
    """One line per input property the workload's speed depends on."""
    lines = []
    for r in results:
        p = r.props
        if "traj_steps" in p:
            lines.append(f"{r.job.label}: trajectory steps {p['traj_steps']}")
        if "final_max_population" in p:
            lines.append(f"{r.job.label}: final mean max population "
                         f"{p['final_max_population']:.4f}")
        if "max_z" in p:
            late = f", after t = 1: {p['max_z_late']:.2f}" if "max_z_late" in p else ""
            lines.append(f"{r.job.label}: max |z| at the checkpoints {p['max_z']:.2f}{late}")
        if "pixel_iters" in p:
            lines.append(f"{r.job.label}: settled share {p['settled_share']:.4f}, "
                         f"needed iteration fraction "
                         f"{p['needed_iters'] / p['pixel_iters']:.4f}")
        if "steps" in p:
            lines.append(f"{r.job.label}: orbit steps {p['steps']}")
    entangle = [r for r in results if r.job.study == "entangle"]
    if entangle:
        ends = [r.props["final_t"] for r in entangle if "final_t" in r.props]
        lines.append(f"entangle: {len(entangle)} seeds, budget hit by "
                     f"{budget_seeds(results) or 'none'}, protocol end time mean "
                     f"{statistics.fmean(ends) if ends else float('nan'):.3f}")
    return lines


def layer_shares(jobs, runs):
    """Per study: each layer's share of the study's traced time, largest first."""
    tracer, traced = runs[0]
    lines = []
    for study in STUDIES:
        labels = {j.label for j in jobs if j.study == study}
        total = sum(r.seconds for r in traced if r.job.label in labels)
        if not labels or not total:
            continue
        parts = sorted(tracer.breakdown(labels).items(), key=lambda kv: -kv[1])
        lines.append(f"{study} ({total:.3f} s traced): " + ", ".join(
            f"{name} {secs / total:.3f}" for name, secs in parts if secs / total >= 0.005))
    return lines


def print_report(args, reps, metrics, extra, failures, shares, units):
    out = sys.stdout
    out.write(f"# qfc benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace} repetitions={len(reps)}\n")
    out.write("# machine: " + json.dumps(bench.machine_info()) + "\n")
    for name, value in [*metrics.items(), *extra.items()]:
        out.write(f"  {name:48s} {value:>16.6g} {units[name]}\n")
    note = " (warm-up first)" if not args.trace else \
        " (warm-up, untraced, traced at 1 and 2 threads)"
    out.write(f"# repetition wall_s{note}: "
              + " ".join(f"{pass_seconds(r):.4f}" for r in reps) + "\n")
    out.write(f"# repetition cpu_s{note}: "
              + " ".join(f"{pass_cpu_seconds(r):.4f}" for r in reps) + "\n")
    for line in shares:
        out.write(f"# layer share: {line}\n")
    for line in input_properties(reps[0]):
        out.write(f"# input: {line}\n")
    for r in reps[0]:
        for path, digest in sorted(r.hashes.items()):
            out.write(f"# sha256 {r.job.label} {path}: {digest}\n")
    for line in failures:
        out.write(f"# FAILED {line}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = bench.seed_range_problem(args.seed)
    if problem:
        parser.error(problem)
    try:
        qfc = bench.import_qfc()
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import qfc: {exc}\n")
        return 2

    os.chdir(bench.ROOT)
    jobs = bench.workload_jobs(args.workload, args.seed)
    try:
        if args.trace:
            _, imports = measure_setup(qfc, 3, importtime=True)
            warmup, untraced, runs = run_traced(jobs)
            reps = [warmup, untraced] + [results for _, results in runs]
            metrics = layer_metrics(jobs, untraced, runs, imports)
            extra, shares = {}, layer_shares(jobs, runs)
        else:
            setup, _ = measure_setup(qfc, SETUP_SPAWNS, importtime=False)
            reps = run_untraced(jobs, args.seconds)
            timed = reps[1:]
            metrics = {
                "setup_s": statistics.median(setup),
                "cpu_s": statistics.median(pass_cpu_seconds(r) for r in timed),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            extra = {"wall_s": statistics.median(pass_seconds(r) for r in timed)}
            extra.update({f"{s}_s": statistics.median(study_seconds(r, s) for r in timed)
                          for s in STUDIES if any(j.study == s for j in jobs)})
            shares = ()
    finally:
        shutil.rmtree(bench.ROOT / bench.WORK, ignore_errors=True)

    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end
    units = {**REPORT_UNITS, **end_to_end, **per_layer}
    attempted = sum(len(r) for r in reps)
    failures = [f"{r.job.label}: {r.problem}" for rep in reps for r in rep if r.problem]
    (metrics if args.trace else extra)["failed_fraction"] = len(failures) / attempted
    if set(metrics) != set(declared):
        raise RuntimeError("metric set does not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(declared))}")
    print_report(args, reps, metrics, extra, failures, shares, units)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
