"""Seeded Wiener increments and the one Monte-Carlo ensemble driver.

Every ensemble monitors an observable that commutes with the rest of its
model (a quantum non-demolition measurement), so its conditioned state is a
closed-form function of the integrated record y_t = mu t + B_t, with mu set
by the monitored eigenvalue and B a Wiener process (Jacobs & Steck, Contemp.
Phys. 47, 279 (2006)).  ``run_ensemble`` samples the records exactly and
reduces a study's reads of them.  Trajectory i always draws from the
counter-based stream (base_seed, stream_id=i), so results are bit-for-bit
reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


MAX_STEPS = 2**63 - 1  # the most steps a run can count in numpy's int64
MAX_CHUNK_FLOATS = 2**24  # the most floats (128 MiB) the records of one chunk may hold
_CHUNK = 256  # trajectories per chunk of run_ensemble


def chunk_floats(n_steps, n_traj, sample_every):
    """Floats in run_ensemble's records of min(n_traj, 256) trajectories."""
    return min(int(n_traj), _CHUNK) * (-(-int(n_steps) // int(sample_every)) + 1)


def chunk_rule(names=("n_traj", "n_steps")):
    """The bound on chunk_floats, in a caller's names for n_traj and n_steps."""
    return (f"min({names[0]}, {_CHUNK}) x (ceil({names[1]}/sample_every) + 1) must be at most"
            f" {MAX_CHUNK_FLOATS}")


def step_problems(name, steps, dt=None):
    """[the message] if a step count, or span / dt for steps = span, passes
    MAX_STEPS or is NaN, else []."""
    if (steps if dt is None else steps / dt) <= MAX_STEPS:
        return []
    got = repr(steps) if dt is None else f"{steps!r} / {dt!r}"
    return [f"{name} must round to at most 2**63 - 1 steps, got {got}"]


def step_count(span, dt):
    """round(span / dt) as an int, once step_problems has passed span / dt."""
    return int(round(span / dt))


def arg_problems(rates=(), counts=()):
    """The canonical message for each bad argument: each (name, value) of
    rates that is not positive and finite, then each (name, value, lo) of
    counts that is not an integer (a bool is not one) of at least lo."""
    return ([f"{name} must be positive and finite, got {value!r}"
             for name, value in rates if not 0 < value < math.inf]
            + [f"{name} must be an integer of at least {lo}, got {value!r}"
               for name, value, lo in counts
               if isinstance(value, bool) or not isinstance(value, numbers.Integral)
               or value < lo])


def uint64_problems(name, value):
    """[the message] unless value is an integer (not a bool) in [0, 2**64),
    else []; a plain int skips arg_problems' slower integer test."""
    if (type(value) is int or not arg_problems(counts=[(name, value, 0)])) and 0 <= value < 2**64:
        return []
    return [f"{name} must be an integer in [0, 2**64), got {value!r}"]


def ensemble_problems(dt, n_steps, n_traj, sample_every, span=None, names=("n_traj", "n_steps"),
                      min_traj=1):
    """run_ensemble's problems, each bound checked once its inputs pass: dt,
    and a span = (name, value) of round(value / dt) steps given in place of
    n_steps, not positive and finite; n_steps, n_traj (named names[0]) and
    sample_every not integers of at least 0, min_traj and 1; the steps or
    sample_every above MAX_STEPS; then chunk_rule(names) broken."""
    rates = arg_problems([("dt", dt)] + ([span] if span else []))
    counts = arg_problems(counts=([] if span else [("n_steps", n_steps, 0)])
                          + [(names[0], n_traj, min_traj), ("sample_every", sample_every, 1)])
    if counts or span and rates:
        return rates + counts
    over = (step_problems(f"{span[0]} / dt", span[1], dt) if span
            else step_problems("n_steps", n_steps)) + step_problems("sample_every", sample_every)
    if not over:
        floats = chunk_floats(step_count(span[1], dt) if span else n_steps, n_traj, sample_every)
        over = [f"{chunk_rule(names)}, got {floats}"] if floats > MAX_CHUNK_FLOATS else []
    return rates + over


def run_problems(dt, n_steps, n_traj, base_seed, sample_every):
    """run_ensemble's problems: ensemble_problems', then uint64_problems' for base_seed."""
    return (ensemble_problems(dt, n_steps, n_traj, sample_every)
            + uint64_problems("base_seed", base_seed))


def raise_problems(problems):
    """One ValueError naming every problem, if there is one."""
    if problems:
        raise ValueError("; ".join(problems))


class IntegrationError(RuntimeError):
    """A step produced a non-finite state."""


def _std(dt):
    """sqrt(dt), after checking that every variance in dt is positive."""
    dt = np.asarray(dt, dtype=float)
    if not np.all(dt > 0):
        raise ValueError("dt must be positive")
    return np.sqrt(dt)


class RngStream:
    """One reproducible random stream per (seed, stream_id) pair.

    Philox keyed on the pair (seed, stream_id) gives statistically
    independent streams, so a trajectory's noise depends only on its index,
    never on visiting order.  ``rekey`` moves the stream to another id by
    resetting the bit generator to counter 0 under the new key, which draws
    exactly what a fresh RngStream(seed, stream_id) would and costs a state
    write instead of a new Philox.
    """

    def __init__(self, seed, stream_id=0):
        raise_problems(uint64_problems("seed", seed))
        self.seed = int(seed)
        self.gen = np.random.Generator(np.random.Philox(key=self.seed))
        self.rekey(stream_id)

    def rekey(self, stream_id):
        """Restart as stream (seed, stream_id), at counter 0."""
        raise_problems(uint64_problems("stream_id", stream_id))
        self.stream_id = stream_id = int(stream_id)
        self.gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [self.seed, stream_id]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def wiener(self, dt, size=None):
        """Normal(0, dt) increment(s); dt may be an array of variances,
        one per increment, each drawn in turn."""
        return self.gen.normal(0.0, _std(dt), size)

    def uniform(self):
        return self.gen.uniform()


def ito_quadratic_variation(rng, t_total, n_steps):
    """Sum of squared increments of one discretized Wiener path over [0, t_total].

    Concentrates on t_total as n_steps grows (variance 2 t^2 / n).
    """
    raise_problems(arg_problems([("t_total", t_total)], [("n_steps", n_steps, 1)]))
    dw = rng.wiener(t_total / n_steps, n_steps)
    return float(np.dot(dw, dw))


@dataclass
class EnsembleStats:
    """Per-sample mean and population variance across trajectories."""

    mean: np.ndarray
    var: np.ndarray
    n_traj: int

    @property
    def sem(self):
        return np.sqrt(self.var / self.n_traj)


def sech(x):
    """sech x without overflow: 2 e^-|x| / (1 + e^-2|x|)."""
    e = np.exp(-np.abs(x))
    return 2.0 * e / (1.0 + e * e)


def run_ensemble(drift, read, dt, n_steps, n_traj, base_seed, sample_every=1,
                 final=None):
    """Mean and variance over trajectories 0 .. n_traj-1 of reads of their
    measurement records.

    The grid is steps 0, sample_every, ... <= n_steps, plus n_steps if the
    stride misses it.  One RngStream serves the call, rekeyed to stream
    (base_seed, i) for trajectory i, which draws first mu = drift(stream)
    (or takes drift itself, if a number), then in one draw one N(0, 1) per
    grid interval tau into its row.  Trajectories run in chunks of 256; per
    chunk the rows are then scaled by sqrt(tau) (dB ~ N(0, tau), the numbers
    wiener(taus) gives), shifted by mu tau and summed in place: a record
    starts at y = 0 and advances y += mu tau + dB.  A chunk's records are
    rows: read(y, t) takes them at the sampled times t = dt * step and gives
    a value (or row) per trajectory and time; final(y, t), if given, takes
    them at t = dt * n_steps and gives a row per trajectory.  Chunks bound
    the memory, and their means and sums of squared deviations are merged
    pairwise in fixed order (Chan, Golub & LeVeque 1979).  Returns
    (times, EnsembleStats) over the samples in time order, then the final
    reads.  One ValueError names every problem run_problems finds, before
    anything is drawn.
    """
    raise_problems(run_problems(dt, n_steps, n_traj, base_seed, sample_every))
    n_steps, n_traj, sample_every = int(n_steps), int(n_traj), int(sample_every)
    steps = sample_every * np.arange(n_steps // sample_every + 1)
    times = dt * steps
    taus = dt * np.diff(np.append(steps, n_steps) if steps[-1] < n_steps else steps)
    sd, stream = _std(taus), RngStream(base_seed)

    parts = []
    for lo in range(0, n_traj, _CHUNK):
        ids = range(lo, min(lo + _CHUNK, n_traj))
        y = np.zeros((len(ids), len(taus) + 1))
        dy, mu = y[:, 1:], []
        for row, i in zip(dy, ids):
            stream.rekey(i)
            mu.append(drift(stream) if callable(drift) else drift)
            stream.gen.standard_normal(out=row)
        dy *= sd
        dy += np.array(mu)[:, None] * taus
        np.cumsum(dy, axis=1, out=dy)
        rows = read(y[:, :len(times)], times).reshape(len(ids), -1)
        if final is not None:
            rows = np.hstack([rows, final(y[:, -1], dt * n_steps)])
        mean = rows.mean(axis=0)
        parts.append((len(rows), mean, ((rows - mean) ** 2).sum(axis=0)))
    n, mean, m2 = parts[0]
    for n_b, mean_b, m2_b in parts[1:]:
        delta, total = mean_b - mean, n + n_b
        mean = mean + delta * (n_b / total)
        m2 = m2 + m2_b + delta * delta * (n * n_b / total)
        n = total
    return times, EnsembleStats(mean=mean, var=m2 / n, n_traj=n_traj)
