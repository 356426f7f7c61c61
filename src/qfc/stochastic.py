"""Seeded Wiener increments and fixed-step Ito integration.

Trajectory i of an ensemble always draws from the counter-based stream
(base_seed, stream_id=i), so results are bit-for-bit reproducible no matter
how trajectories are scheduled or batched.
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


def run_ensemble(batch, n_traj, base_seed, chunk=256, threads=1):
    """Mean and variance of batch's rows over trajectories 0 .. n_traj-1.

    Trajectories run in chunks of consecutive indices: batch receives the
    streams RngStream(base_seed, i) of one chunk and returns one float row
    (of fixed shape) per trajectory.  The chunks' means and sums of squared
    deviations are merged pairwise in fixed chunk order (Chan, Golub &
    LeVeque 1979), so the result is identical for any thread count.
    """
    n_traj = int(n_traj)
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    chunk = max(1, int(chunk))

    def run_chunk(lo):
        streams = [RngStream(base_seed, i) for i in range(lo, min(lo + chunk, n_traj))]
        rows = np.asarray(batch(streams), dtype=float)
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
    return EnsembleStats(mean=mean, var=m2 / n, n_traj=n_traj)
