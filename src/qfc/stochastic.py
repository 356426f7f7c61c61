"""Seeded Wiener increments and the one Monte-Carlo ensemble driver.

``run_ensemble`` owns the streams, the Wiener loop, the sample grid and the
reducer; a study supplies a start row and an advance/read pair.  Trajectory
i always draws from the counter-based stream (base_seed, stream_id=i), so
results are bit-for-bit reproducible however trajectories are scheduled.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


class IntegrationError(RuntimeError):
    """A step produced a non-finite state."""


class RngStream:
    """One reproducible random stream per (seed, stream_id) pair.

    Philox keyed on the pair gives statistically independent streams, so a
    trajectory's noise depends only on its index, never on visiting order.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0 <= self.stream_id < 2**64:
            raise ValueError("stream_id must fit in an unsigned 64-bit integer")
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def wiener(self, dt, size=None):
        """Normal(0, dt) increment(s)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        return self.gen.normal(0.0, np.sqrt(dt), size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def uniform(self, size=None):
        return self.gen.uniform(size=size)


def ito_quadratic_variation(rng, t_total, n_steps):
    """Sum of squared increments of one discretized Wiener path over [0, t_total].

    Concentrates on t_total as n_steps grows (variance 2 t^2 / n).
    """
    if t_total <= 0:
        raise ValueError("t_total must be positive")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
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


def wiener_steps(streams, dt, n_steps):
    """Yield n_steps rows (m,) of Wiener increments, one per stream and step.

    Each stream is drawn in blocks of 1000 steps: the values of one draw of
    all n_steps, in O(1000 m) memory."""
    for lo in range(0, n_steps, 1000):
        rows = np.empty((min(1000, n_steps - lo), len(streams)))
        for q, stream in enumerate(streams):
            rows[:, q] = stream.wiener(dt, len(rows))
        yield from rows


def run_ensemble(x0, advance, read, dt, n_steps, n_traj, base_seed,
                 sample_every=1, chunk=256, threads=1, final=None):
    """Mean and variance over trajectories 0 .. n_traj-1, all started at x0.

    Trajectory i is row i of a chunk's stacked copies of the row x0 and
    draws from RngStream(base_seed, i): each of the n_steps steps does
    x = advance(x, dw), dw one increment per row.  The samples are read(x)
    at step 0 and every sample_every-th step, copied as taken, then final(x)
    after the last step if given; each is one row (or value) per trajectory.
    The chunks' means and sums of squared deviations are merged pairwise in
    fixed chunk order (Chan, Golub & LeVeque 1979), so the result is
    identical for any thread count.  Returns (times, EnsembleStats): times
    are dt * step at the sampled steps, and the stats run over the samples
    in step order, then the final values.
    """
    n_traj = int(n_traj)
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    n_steps, sample_every, chunk = int(n_steps), max(1, int(sample_every)), max(1, int(chunk))
    times = dt * np.arange(0, n_steps + 1, sample_every)

    def run_chunk(lo):
        streams = [RngStream(base_seed, i) for i in range(lo, min(lo + chunk, n_traj))]
        x = np.tile(x0, (len(streams), 1))
        first = read(x)
        # one array for all samples: per-sample arrays allocated between the
        # Wiener blocks raised peak RSS by about 6 MB on the default purify
        samples = np.empty(first.shape[:1] + times.shape + first.shape[1:])
        samples[:, 0] = first
        for s, dw in enumerate(wiener_steps(streams, dt, n_steps), 1):
            x = advance(x, dw)
            if s % sample_every == 0:
                samples[:, s // sample_every] = read(x)
        dw = None  # a view of the last Wiener block: free it before the reduction
        rows = samples.reshape(len(streams), -1)
        if final is not None:
            rows = np.hstack([rows, final(x)])
        mean = rows.mean(axis=0)
        return len(rows), mean, ((rows - mean) ** 2).sum(axis=0)

    starts = range(0, n_traj, chunk)
    if threads and threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            parts = list(pool.map(run_chunk, starts))
    else:
        parts = [run_chunk(lo) for lo in starts]
    n, mean, m2 = parts[0]
    for n_b, mean_b, m2_b in parts[1:]:
        delta, total = mean_b - mean, n + n_b
        mean = mean + delta * (n_b / total)
        m2 = m2 + m2_b + delta * delta * (n * n_b / total)
        n = total
    return times, EnsembleStats(mean=mean, var=m2 / n, n_traj=n_traj)
