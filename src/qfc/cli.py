"""Command-line front end binding each experiment to flags and config files.

Configuration is resolved in increasing precedence: built-in defaults, an
optional flat ``key=value`` config file (``#`` starts a comment), then
command-line flags.  Unknown keys, non-finite floats and out-of-range values
are rejected with one message per offending field.  Every run embeds its
resolved configuration as ``# key=value`` lines in the output files, and
identical configuration plus seed gives byte-identical files for any
``--threads`` value (thread count is therefore the one setting not echoed).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import chaos, purification, sme, stabilization
from .entanglement import K_DT_LIMIT, entangle_protocol
from .output import write_csv, write_pgm
from .stochastic import MAX_STEPS, RngStream, run_ensemble


class ConfigError(Exception):
    """Carries every validation failure of one resolution attempt."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class Field:
    """One configurable parameter: parsing, default, and range check."""

    name: str
    parse: type
    default: object
    check: object = None  # value -> error message or None
    help: str = ""


def _positive(v):
    return None if v > 0 else "must be positive"


def _non_negative(v):
    return None if v >= 0 else "must be non-negative"


def _at_least(lo):
    def check(v):
        return None if v >= lo else f"must be at least {lo}"
    return check


def _in_closed(lo, hi, what):
    def check(v):
        return None if lo <= v <= hi else f"must lie in {what}"
    return check


def _seed_check(v):
    return None if 0 <= v < 2**64 else "must fit in an unsigned 64-bit integer"


def _grid_check(v):
    if re.fullmatch(r"[0-9]+x[0-9]+", v) is None:
        return "must look like WIDTHxHEIGHT, e.g. 512x512"
    w, h = (int(part) for part in v.split("x"))
    if w < 1 or h < 1:
        return "must have at least one pixel per side"
    return None


def _shared_fields(command):
    return [
        Field("seed", int, 0, _seed_check, "base seed for all random streams"),
        Field("threads", int, 1, _at_least(1),
              "julia worker threads; never changes output bytes"),
        Field("out", str, "qfc_" + command.replace("-", "_"), None,
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
    n_steps = int(round(cfg["t_max"] / dt))
    times, mean, var = purification.mc_nofeedback_impurity(
        k, dt, n_steps, cfg["trajectories"], cfg["seed"],
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


def _run_julia(cfg):
    width, height = (int(part) for part in cfg["grid"].split("x"))
    job = chaos.RasterJob(
        re_min=cfg["re_min"], re_max=cfg["re_max"],
        im_min=cfg["im_min"], im_max=cfg["im_max"],
        width=width, height=height, max_iters=cfg["max_iters"],
        cycle_tol=cfg["cycle_tol"],
        params=chaos.MapParams(p=complex(cfg["p_re"], cfg["p_im"])))
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
    n_steps = int(round(cfg["t_max"] / dt))
    times, mean, var = sme.run_dephasing_ensemble(
        k, dt, n_steps, cfg["trajectories"], cfg["seed"],
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
        read, dt, int(round(cfg["t_max"] / dt)), cfg["trajectories"], cfg["seed"],
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


def _entangle_step_check(cfg):
    if cfg["k"] * cfg["dt"] > K_DT_LIMIT:
        return f"dt: k*dt must be at most {K_DT_LIMIT:g}, the feedback acts once per step"
    return None


def _step_count_check(span):
    def check(cfg):
        if not cfg[span] / cfg["dt"] <= MAX_STEPS:  # an overflow to inf fails too
            return f"dt: {span}/dt must round to at most 2**63 - 1 steps"
        return None
    return check


def _spot_mode_check(cfg):
    if (cfg["p"] is None) != (cfg["theta"] is None):
        return ("p: give both --p and --theta for a spot check, "
                "or neither for the full surface")
    return None


def _window_check(cfg):
    if cfg["re_min"] >= cfg["re_max"]:
        return "re_min: window needs re_min < re_max"
    if cfg["im_min"] >= cfg["im_max"]:
        return "im_min: window needs im_min < im_max"
    return None


@dataclass(frozen=True)
class Command:
    name: str
    fields: list
    cross_checks: list
    run: object
    help: str


_HALF_PI = math.pi / 2.0

COMMANDS = {}
for _cmd in [
    Command(
        "stabilize",
        [Field("p", float, None, _in_closed(0.0, 0.5, "[0, 1/2]"),
               "bit-flip probability (spot mode)"),
         Field("theta", float, None, _in_closed(0.0, _HALF_PI, "[0, pi/2]"),
               "state latitude (spot mode)"),
         Field("samples", int, 100000, _at_least(2),
               "Monte-Carlo rounds per scheme in spot mode"),
         Field("grid_size", int, 201, _at_least(50),
               "points per axis of the (p, theta) surface")],
        [_spot_mode_check],
        _run_stabilize,
        "fidelity surface of the feedback schemes, or a seeded spot check"),
    Command(
        "purify",
        [Field("k", float, 1.0, _positive, "measurement strength"),
         Field("dt", float, 1e-4, _positive,
               "time step; samples fall at t = dt * step"),
         Field("t_max", float, 2.0, _positive, "simulated time span"),
         Field("trajectories", int, 1000, _at_least(2), "ensemble size"),
         Field("sample_every", int, 100, _at_least(1),
               "steps between recorded samples"),
         Field("target", float, 1e-3,
               _in_closed(1e-12, 0.499999, "(0, 1/2)"),
               "impurity target for the reported time ratio")],
        [_step_count_check("t_max")],
        _run_purify,
        "ensemble impurity with and without feedback"),
    Command(
        "entangle",
        [Field("k", float, 1.0, _positive, "parity measurement strength"),
         Field("dt", float, 1e-4, _positive,
               f"time between feedback kicks; k*dt at most {K_DT_LIMIT:g}"),
         Field("horizon", float, 10.0, _positive, "time budget"),
         Field("sample_every", int, 10, _at_least(1),
               "steps between recorded samples")],
        [_entangle_step_check, _step_count_check("horizon")],
        _run_entangle,
        "drive two qubits onto a Bell state by parity monitoring"),
    Command(
        "bellpurify",
        [Field("steps", int, 30, _non_negative, "iterations of the map"),
         Field("x", float, math.pi / 4, None, "rotation latitude"),
         Field("phi", float, math.pi / 2, None, "rotation phase")],
        [],
        _run_bellpurify,
        "iterated measurement map from the perturbed Bell fixture"),
    Command(
        "julia",
        [Field("p_re", float, 1.0, None, "real part of the map parameter"),
         Field("p_im", float, 0.0, None, "imaginary part of the map parameter"),
         Field("grid", str, "512x512", _grid_check, "raster size WIDTHxHEIGHT"),
         Field("max_iters", int, 400, _at_least(1),
               "iteration budget per pixel"),
         Field("cycle_tol", float, 1e-9, _positive,
               "chordal tolerance for cycle detection"),
         Field("re_min", float, -2.0, None, "left window edge"),
         Field("re_max", float, 2.0, None, "right window edge"),
         Field("im_min", float, -2.0, None, "bottom window edge"),
         Field("im_max", float, 2.0, None, "top window edge")],
        [_window_check],
        _run_julia,
        "convergence-time raster of the purification map"),
    Command(
        "sme-run",
        [Field("k", float, 1.0, _positive, "dephasing strength"),
         Field("dt", float, 1e-3, _positive,
               "time step; samples fall at t = dt * step"),
         Field("t_max", float, 1.0, _positive, "simulated time span"),
         Field("trajectories", int, 2000, _at_least(2), "ensemble size"),
         Field("sample_every", int, 10, _at_least(1),
               "steps between recorded samples")],
        [_step_count_check("t_max")],
        _run_sme,
        "monitored-dephasing ensemble against the deterministic average"),
    Command(
        "spin-collapse",
        [Field("two_j", int, 4, _at_least(1), "2j, so the dimension is 2j+1"),
         Field("strength", float, 1.0, _positive, "measurement strength"),
         Field("eta", float, 1.0, _in_closed(1e-12, 1.0, "(0, 1]"),
               "detector efficiency"),
         Field("dt", float, 1e-3, _positive,
               "time step; samples fall at t = dt * step"),
         Field("t_max", float, 8.0, _positive, "simulated time span"),
         Field("trajectories", int, 100, _at_least(2), "ensemble size"),
         Field("sample_every", int, 10, _at_least(1),
               "steps between recorded samples")],
        [_step_count_check("t_max")],
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
    if not problems:
        for cross in spec.cross_checks:
            message = cross(cfg)
            if message:
                problems.append(message)

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
