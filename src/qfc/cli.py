"""Command-line front end binding each experiment to flags and config files.

Configuration is resolved in increasing precedence: built-in defaults, an
optional flat ``key=value`` config file (``#`` starts a comment), then
command-line flags.  Unknown keys, unparsable values, non-finite floats and a
malformed grid are rejected here, every other range by the study that owns
it, in its words, and one error lists them all.  Every run embeds its
resolved configuration as ``# key=value`` lines in the output files, and
identical configuration plus seed gives byte-identical files.  Every command
runs on the calling thread; ``--threads`` is accepted, changes nothing and is
the one setting not echoed.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import chaos, purification, sme, stabilization
from .entanglement import K_DT_LIMIT, MAX_PROTOCOL_STEPS, entangle_protocol, protocol_problems
from .output import write_csv, write_pgm
from .stochastic import (RngStream, arg_problems, chunk_rule, ensemble_problems, run_ensemble,
                         step_count, uint64_problems)


class ConfigError(Exception):
    """Carries every validation failure of one resolution attempt."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class Field:
    """One configurable parameter: parsing, default and help."""

    name: str
    parse: type
    default: object
    help: str = ""
    check: object = None  # value -> error message or None; only grid has one


def _grid_check(v):
    if re.fullmatch(r"[0-9]+x[0-9]+", v) is None:
        return "must look like WIDTHxHEIGHT, e.g. 512x512"
    return None


def _ensemble_fields(dt, t_max, trajectories, sample_every):
    """The run_ensemble fields of purify, sme-run and spin-collapse, at their defaults."""
    return [
        Field("dt", float, dt, "time step; samples fall at t = dt * step"),
        Field("t_max", float, t_max, "simulated time span"),
        Field("trajectories", int, trajectories, "ensemble size"),
        Field("sample_every", int, sample_every, "steps between recorded samples"),
    ]


def _shared_fields(command):
    return [
        Field("seed", int, 0, "base seed for all random streams"),
        Field("threads", int, 1, "accepted and ignored: every command runs on one thread"),
        Field("out", str, "qfc_" + command.replace("-", "_"),
              "output base path; files are written as <out>.csv (and <out>.pgm)"),
    ]


# ---------------------------------------------------------------------------
# runners


def _grid_axis(values, shape, axis):
    """An axis's values broadcast along the other grid axis; the writer formats each once."""
    return np.broadcast_to(values[:, None] if axis == 0 else values, shape)


def _run_stabilize(cfg):
    spot = cfg["p"] is not None
    cfg["grid_size" if spot else "samples"] = None  # drop from the echo
    results = {}
    if spot:
        p, theta = cfg["p"], cfg["theta"]
        chi, _ = stabilization.optimize_chi(p, theta)
        results["chi"] = chi
        labels = {"nothing": "do_nothing", "discriminate": "discriminate_prepare",
                  "weak": "weak_feedback"}
        stats = [(stabilization.scheme_closed_form(scheme, p, theta),
                  *stabilization.mc_average_fidelity(
                      scheme, p, theta, cfg["samples"], RngStream(cfg["seed"], i),
                      chi=chi))
                 for i, scheme in enumerate(labels)]
        columns = [list(labels.values()), *np.array(stats).T]
        header = ["scheme", "closed_form", "mc_mean", "std_error"]
    else:
        surf = stabilization.gap_surface(cfg["grid_size"], cfg["grid_size"])
        p_star, theta_star, gap_star = surf.argmax()
        results.update(argmax_p=p_star, argmax_theta=theta_star,
                       gap_max=gap_star)
        shape = surf.gap.shape
        columns = [_grid_axis(surf.p, shape, 0), _grid_axis(surf.theta, shape, 1),
                   surf.f1, _grid_axis(surf.f3[0], shape, 1), surf.f4, surf.gap]
        header = ["p", "theta", "f1", "f3", "f4", "gap"]
    return [("csv", header, columns)], results


def _run_purify(cfg):
    k, dt = cfg["k"], cfg["dt"]
    times, mean, var = purification.mc_nofeedback_impurity(
        k, dt, step_count(cfg["t_max"], dt), cfg["trajectories"], cfg["seed"],
        sample_every=cfg["sample_every"])
    sem = np.sqrt(var / cfg["trajectories"])
    quad_ref = purification.nofeedback_impurity_curve(times, k)
    fb_ref = 0.5 * np.exp(-8.0 * k * times)
    target = cfg["target"]
    t_fb = purification.time_to_target_feedback(target, k)
    t_free = purification.time_to_target_nofeedback(target, k)
    results = {"target": target, "t_feedback": t_fb, "t_nofeedback": t_free,
               "time_ratio": t_fb / t_free}
    header = ["t", "mc_mean_impurity", "mc_std_error", "quadrature_impurity",
              "feedback_impurity"]
    return [("csv", header, [times, mean, sem, quad_ref, fb_ref])], results


def _run_entangle(cfg):
    rho0 = np.eye(4, dtype=complex) / 4.0
    res = entangle_protocol(rho0, cfg["k"], cfg["dt"], cfg["horizon"],
                            cfg["seed"], sample_every=cfg["sample_every"])
    results = {"final_fidelity": res.final_fidelity,
               "final_r_squared": float(res.r_squared[-1])}
    if res.dfs_time is not None:
        results["dfs_time"] = res.dfs_time
    header = ["t", "r_squared", "leakage", "q1_z", "q2_purity",
              "bell_fidelity"]
    columns = [res.times, res.r_squared, res.leakage, res.q1_z,
               res.q2_purity, res.bell_fidelity]
    return [("csv", header, columns)], results


def _run_bellpurify(cfg):
    fids = chaos.bell_purify_iterate(chaos.PERTURBED_BELL, cfg["steps"],
                                     x=cfg["x"], phi=cfg["phi"], raw=True)
    p = chaos.MapParams.from_rotation(cfg["x"], cfg["phi"]).p
    results = {"p_re": p.real, "p_im": p.imag,
               "final_fidelity": float(fids[-1])}
    columns = [np.arange(len(fids)), fids]
    return [("csv", ["step", "fidelity"], columns)], results


def _raster_job(cfg):
    width, height = (int(part) for part in cfg["grid"].split("x"))
    return chaos.RasterJob(
        re_min=cfg["re_min"], re_max=cfg["re_max"],
        im_min=cfg["im_min"], im_max=cfg["im_max"],
        width=width, height=height, max_iters=cfg["max_iters"],
        cycle_tol=cfg["cycle_tol"],
        params=chaos.MapParams(p=complex(cfg["p_re"], cfg["p_im"])))


def _run_julia(cfg):
    job = _raster_job(cfg)
    grid = chaos.julia_raster(job, threads=cfg["threads"])
    counts = grid.counts
    res, ims = job.pixel_centers()
    results = {"nonconverged_fraction": float(np.mean(counts < 0))}
    columns = [_grid_axis(res, counts.shape, 1), _grid_axis(ims, counts.shape, 0),
               counts]
    return [("csv", ["re", "im", "count"], columns),
            ("pgm", counts, cfg["max_iters"])], results


def _run_sme(cfg):
    k, dt = cfg["k"], cfg["dt"]
    times, mean, var = sme.run_dephasing_ensemble(
        k, dt, step_count(cfg["t_max"], dt), cfg["trajectories"], cfg["seed"],
        sample_every=cfg["sample_every"])
    sem = np.sqrt(var / cfg["trajectories"])
    analytic = 0.5 * np.exp(-4.0 * k * times)
    header = ["t", "mean_coherence", "std_error", "analytic_coherence"]
    return [("csv", header, [times, mean, sem, analytic])], {}


def _run_spin_collapse(cfg):
    # F_z is measured non-demolition: from the maximally mixed state a
    # trajectory's level m is uniform, its record is y = a m t + B_t, and
    # p_m ~ exp(a m y - a^2 m^2 t / 2)
    d = cfg["two_j"] + 1
    fz_diag = 0.5 * cfg["two_j"] - np.arange(d)  # F_z eigenvalues m = j .. -j
    amp = 2.0 * math.sqrt(cfg["strength"] * cfg["eta"])

    def log_weights(y, t):  # log p_m, up to one constant per trajectory and time
        return amp * fz_diag * (y[..., None] - 0.5 * amp * fz_diag * np.asarray(t)[..., None])

    def read(y, t):
        lw = log_weights(y, t)
        p = np.exp(lw - lw.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        return np.stack([p.max(axis=-1), p @ fz_diag], axis=-1)

    dt = cfg["dt"]
    times, stats = run_ensemble(
        lambda stream: amp * fz_diag[min(int(stream.uniform() * d), d - 1)],
        read, dt, step_count(cfg["t_max"], dt), cfg["trajectories"], cfg["seed"],
        sample_every=cfg["sample_every"],
        final=lambda y, t: np.eye(d)[np.argmax(log_weights(y, t), axis=1)])  # one-hot outcome
    n_samples = len(times)
    track_mean = stats.mean[:2 * n_samples].reshape(n_samples, 2)
    track_sem = stats.sem[:2 * n_samples].reshape(n_samples, 2)
    counts = np.rint(stats.mean[2 * n_samples:] * stats.n_traj).astype(int)
    results = {"final_counts": ",".join(str(c) for c in counts),
               "fz_eigenvalues": ",".join("%g" % v for v in fz_diag)}
    header = ["t", "mean_max_population", "sem_max_population", "mean_fz"]
    columns = [times, track_mean[:, 0], track_sem[:, 0], track_mean[:, 1]]
    return [("csv", header, columns)], results


# ---------------------------------------------------------------------------
# command table


_CHUNK_NAMES = ("trajectories", "t_max/dt")  # run_ensemble's n_traj and n_steps


def _ensemble_check(cfg):
    # two trajectories at least, so that every sample has a standard error
    return ensemble_problems(cfg["dt"], None, cfg["trajectories"], cfg["sample_every"],
                             span=("t_max", cfg["t_max"]), names=_CHUNK_NAMES, min_traj=2)


def _stabilize_check(cfg):
    p, theta = cfg["p"], cfg["theta"]
    if (p is None) != (theta is None):
        spot = ["p: give both --p and --theta for a spot check, or neither for the full surface"]
    else:  # a non-finite coordinate is named as such already
        spot = [] if p is None or not math.isfinite(p + theta) else (
            stabilization.spot_problems(p, theta))
    return spot + arg_problems(counts=[("samples", cfg["samples"], stabilization.MIN_SAMPLES),
                                       ("grid_size", cfg["grid_size"], stabilization.MIN_GRID)])


def _julia_check(cfg):
    try:
        _raster_job(cfg)
    except ValueError as exc:  # raise_problems joins RasterJob's problems with "; "
        return str(exc).split("; ")
    return []


def _spin_collapse_check(cfg):
    # the spin model is this module's own, and so are the ranges of its fields
    eta = [] if 0 < cfg["eta"] <= 1 else [f"eta must lie in (0, 1], got {cfg['eta']!r}"]
    return (arg_problems([("strength", cfg["strength"])], [("two_j", cfg["two_j"], 1)]) + eta
            + _ensemble_check(cfg))


@dataclass(frozen=True)
class Command:
    name: str
    fields: list
    cross_check: object  # cfg -> every problem the studies find with its values
    run: object
    help: str


COMMANDS = {}
for _cmd in [
    Command(
        "stabilize",
        [Field("p", float, None, "bit-flip probability (spot mode)"),
         Field("theta", float, None, "state latitude (spot mode)"),
         Field("samples", int, 100000, "Monte-Carlo rounds per scheme in spot mode"),
         Field("grid_size", int, 201, "points per axis of the (p, theta) surface")],
        _stabilize_check,
        _run_stabilize,
        "fidelity surface of the feedback schemes, or a seeded spot check"),
    Command(
        "purify",
        [Field("k", float, 1.0, "measurement strength"),
         *_ensemble_fields(dt=1e-4, t_max=2.0, trajectories=1000, sample_every=100),
         Field("target", float, 1e-3, "impurity target for the reported time ratio")],
        lambda cfg: (arg_problems([("k", cfg["k"])]) + _ensemble_check(cfg)
                     + purification.target_problems(cfg["target"], cfg["k"])),
        _run_purify,
        "ensemble impurity with and without feedback"),
    Command(
        "entangle",
        [Field("k", float, 1.0, "parity measurement strength"),
         Field("dt", float, 1e-4, f"time between feedback kicks; k*dt at most {K_DT_LIMIT:g}"),
         Field("horizon", float, 10.0,
               f"time budget; horizon/dt at most {MAX_PROTOCOL_STEPS} steps"),
         Field("sample_every", int, 10, "steps between recorded samples")],
        lambda cfg: protocol_problems(cfg["k"], cfg["dt"], cfg["horizon"], cfg["sample_every"]),
        _run_entangle,
        "drive two qubits onto a Bell state by parity monitoring"),
    Command(
        "bellpurify",
        [Field("steps", int, 30, "iterations of the map"),
         Field("x", float, math.pi / 4, "rotation latitude"),
         Field("phi", float, math.pi / 2, "rotation phase")],
        lambda cfg: arg_problems(counts=[("steps", cfg["steps"], 0)]),
        _run_bellpurify,
        "iterated measurement map from the perturbed Bell fixture"),
    Command(
        "julia",
        [Field("p_re", float, 1.0, "real part of the map parameter"),
         Field("p_im", float, 0.0, "imaginary part of the map parameter"),
         Field("grid", str, "512x512", "raster size WIDTHxHEIGHT", _grid_check),
         Field("max_iters", int, 400, "iteration budget per pixel"),
         Field("cycle_tol", float, 1e-9, "chordal tolerance for cycle detection"),
         Field("re_min", float, -2.0, "left window edge"),
         Field("re_max", float, 2.0, "right window edge"),
         Field("im_min", float, -2.0, "bottom window edge"),
         Field("im_max", float, 2.0, "top window edge")],
        _julia_check,
        _run_julia,
        "convergence-time raster of the purification map"),
    Command(
        "sme-run",
        [Field("k", float, 1.0, "dephasing strength"),
         *_ensemble_fields(dt=1e-3, t_max=1.0, trajectories=2000, sample_every=10)],
        lambda cfg: arg_problems([("k", cfg["k"])]) + _ensemble_check(cfg),
        _run_sme,
        "monitored-dephasing ensemble against the deterministic average"),
    Command(
        "spin-collapse",
        [Field("two_j", int, 4, "2j, so the dimension is 2j+1"),
         Field("strength", float, 1.0, "measurement strength"),
         Field("eta", float, 1.0, "detector efficiency"),
         *_ensemble_fields(dt=1e-3, t_max=8.0, trajectories=100, sample_every=10)],
        _spin_collapse_check,
        _run_spin_collapse,
        "projective collapse of a monitored spin ensemble"),
]:
    COMMANDS[_cmd.name] = _cmd


# ---------------------------------------------------------------------------
# resolution


def parse_config_file(path, problems):
    """Read flat key=value lines; '#' starts a comment."""
    values = {}
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        problems.append(f"config: cannot read {path}: {exc.strerror or exc}")
        return values
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            problems.append(f"config line {lineno}: expected key=value")
            continue
        if key in values:
            problems.append(f"config line {lineno}: duplicate key {key}")
            continue
        values[key] = value
    return values


def resolve_config(command, cli_values, config_path):
    """Merge defaults, config file, and flags; validate every field."""
    spec = COMMANDS[command]
    fields = spec.fields + _shared_fields(command)
    by_name = {f.name: f for f in fields}
    problems = []

    cfg = {f.name: f.default for f in fields}

    if config_path is not None:
        for key, raw in parse_config_file(config_path, problems).items():
            f = by_name.get(key)
            if f is None:
                problems.append(f"{key}: unknown key")
                continue
            try:
                cfg[key] = f.parse(raw)
            except ValueError:
                problems.append(
                    f"{key}: cannot parse {raw!r} as {f.parse.__name__}")

    for f in fields:
        value = cli_values.get(f.name)
        if value is not None:
            cfg[f.name] = value

    checked = dict(cfg)  # what the owners check: a value that failed below as its default
    for f in fields:
        value = cfg[f.name]
        if value is None:
            continue
        if f.parse is float and not math.isfinite(value):
            message = "must be finite"
        else:
            message = f.check and f.check(value)
        if message:
            problems.append(f"{f.name}: {message}")
            if f.default is not None:  # a spot coordinate is kept, to keep spot mode
                checked[f.name] = f.default
    problems += (spec.cross_check(checked) + uint64_problems("seed", checked["seed"])
                 + arg_problems(counts=[("threads", checked["threads"], 1)]))

    if problems:
        raise ConfigError(problems)
    return cfg


def resolved_preamble(command, cfg, results):
    """Ordered config echo for output headers; threads deliberately left out."""
    spec = COMMANDS[command]
    pre = {"command": command}
    for f in spec.fields + _shared_fields(command):
        if f.name == "threads" or cfg[f.name] is None:
            continue
        pre[f.name] = cfg[f.name]
    pre.update(results)
    return pre


# ---------------------------------------------------------------------------
# entry point


def _usage(stream=sys.stderr):
    stream.write("usage: qfc COMMAND [--flag value ...]\n\ncommands:\n")
    for name, spec in COMMANDS.items():
        stream.write(f"  {name:14s} {spec.help}\n")
    stream.write("\nshared flags: --seed N  --out BASE  --config FILE"
                 "  --threads N\nRun 'qfc COMMAND --help' for the"
                 " command's flags.\n")


def _command_help(command):
    spec = COMMANDS[command]
    sys.stdout.write(f"usage: qfc {command} [flags]\n\n{spec.help}\n\nflags:\n")
    for f in spec.fields + _shared_fields(command):
        flag = "--" + f.name.replace("_", "-")
        default = "" if f.default is None else f" (default {f.default})"
        sys.stdout.write(f"  {flag:17s} {f.help}{default}\n")
    sys.stdout.write("  --config FILE     flat key=value file, '#' comments;"
                     " flags override it\n")
    if any(f.name == "trajectories" for f in spec.fields):
        sys.stdout.write(f"\nbound: {chunk_rule(_CHUNK_NAMES)}, the floats one chunk of"
                         " trajectories holds\n")


def _parse_argv(command, argv):
    """Flags for one command; every value is typed per the field table."""
    spec = COMMANDS[command]
    fields = {f.name: f for f in spec.fields + _shared_fields(command)}
    values = {}
    config_path = None
    problems = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("-h", "--help"):
            _command_help(command)
            raise SystemExit(0)
        if not arg.startswith("--"):
            problems.append(f"unexpected argument {arg!r}")
            i += 1
            continue
        name = arg[2:].replace("-", "_")
        if i + 1 >= len(argv):
            problems.append(f"{arg} needs a value")
            break
        raw = argv[i + 1]
        i += 2
        if name == "config":
            config_path = raw
            continue
        f = fields.get(name)
        if f is None:
            problems.append(f"{name}: unknown flag {arg}")
            continue
        try:
            values[name] = f.parse(raw)
        except ValueError:
            problems.append(f"{name}: cannot parse {raw!r} as {f.parse.__name__}")
    if problems:
        raise ConfigError(problems)
    return values, config_path


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        _usage(sys.stdout if argv else sys.stderr)
        return 0 if argv else 2
    command = argv[0]
    if command not in COMMANDS:
        sys.stderr.write(f"error: unknown command {command!r}\n\n")
        _usage()
        return 2

    try:
        values, config_path = _parse_argv(command, argv[1:])
        cfg = resolve_config(command, values, config_path)
    except ConfigError as exc:
        sys.stderr.write("error: invalid configuration:\n")
        for problem in exc.problems:
            sys.stderr.write(f"  {problem}\n")
        return 2

    try:
        artifacts, results = COMMANDS[command].run(cfg)
    except Exception as exc:  # surface module errors with context
        sys.stderr.write(f"error: {command}: {exc}\n")
        return 1

    preamble = resolved_preamble(command, cfg, results)
    written = []
    for kind, *args in artifacts:  # csv: header, columns; pgm: counts, max_iters
        path = cfg["out"] + "." + kind
        (write_csv if kind == "csv" else write_pgm)(path, *args, preamble)
        written.append(path)
    sys.stdout.write("wrote " + " ".join(written) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
