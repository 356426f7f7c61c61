"""Rapid purification of a qubit under continuous sigma_z monitoring.

The Bloch components of the conditioned state obey

    da_x = -(4k dt + a_z sqrt(8k) dW) a_x        (same for a_y)
    da_z = (1 - a_z^2) sqrt(8k) dW

and the impurity is (1 - |a|^2)/2.  Without feedback the ensemble-average
impurity from the maximally mixed state is nofeedback_impurity, an integral
over the measurement record evaluated by the trapezoid rule; with the
idealized feedback that keeps the state on the equator the transverse
diffusion cancels exactly, leaving the deterministic law
impurity(t) = impurity(0) exp(-8 k t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/tracer.py patches the RngStream it finds here
from .stochastic import RngStream, run_ensemble  # noqa: F401

_TOL_KT = 1e-4  # bisection tolerance of time_to_target_nofeedback, in k t


@dataclass
class PurificationRun:
    """Parameters of one purification experiment."""

    k: float
    dt: float
    horizon: float
    seed: int = 0

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.dt <= 0 or self.dt * self.k > 1e-3 * (1 + 1e-12):
            raise ValueError("dt must satisfy 0 < k dt <= 1e-3")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    @property
    def n_steps(self):
        return int(round(self.horizon / self.dt))


# Trapezoid nodes j h: with h = min(0.25, 0.28/a) the cut-off min(9, 40/a)
# is at most j = 40/0.28 < 143.
_NODES = np.arange(144)


def nofeedback_impurity(t, k):
    """Ensemble-average impurity of monitoring without feedback, started from
    the maximally mixed state; ``nofeedback_impurity_curve`` at one time."""
    return float(nofeedback_impurity_curve([t], k)[0])


def nofeedback_impurity_curve(ts, k):
    """nofeedback_impurity at every time in ts, as one array expression.

    Evaluates exp(-4kt)/sqrt(8 pi) * Int exp(-u^2/2) sech(a u) du, a =
    sqrt(8kt), by the trapezoid rule on the even integrand: step h =
    min(0.25, 0.28/a), nodes u_j = j h up to min(9, 40/a), f(0) at half
    weight.  The integrand is analytic in |Im u| < pi/(2a), so the rule
    converges geometrically; these steps put its error near 1e-15 relative.
    t = 0 returns 1/2 exactly.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    t = np.asarray(ts, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    a = np.sqrt(8.0 * k * t)[..., None]
    with np.errstate(divide="ignore"):
        h = np.minimum(0.25, 0.28 / a)
        u_max = np.minimum(9.0, 40.0 / a)
    u = h * _NODES
    # sech written to avoid cosh overflow at large u
    f = np.where(u <= u_max, 2.0 * np.exp(-0.5 * u * u - a * u)
                 / (1.0 + np.exp(-2.0 * a * u)), 0.0)
    f[..., 0] = 0.5
    val = h[..., 0] * f.sum(axis=-1)
    imp = 2.0 * val * np.exp(-4.0 * k * t) / np.sqrt(8.0 * np.pi)
    return np.where(t == 0.0, 0.5, imp)


def mc_nofeedback_impurity(k, dt, n_steps, n_traj, base_seed, sample_every=1,
                           chunk=1000, threads=1):
    """Monte-Carlo ensemble of the no-feedback scheme from the mixed state,
    run by ``run_ensemble``.

    From the origin the transverse components stay zero, so each trajectory
    is its a_z component alone, stepped in place and clamped to [-1, 1].
    Returns (times, mean, var) of the impurity at every sample_every-th step.
    """
    amp = np.sqrt(8.0 * float(k))

    def advance(a_z, dw):
        a_z += (1.0 - a_z * a_z) * amp * dw[:, None]
        return np.minimum(np.maximum(a_z, -1.0, out=a_z), 1.0, out=a_z)  # np.clip, faster

    times, stats = run_ensemble(
        np.zeros(1), advance, lambda a_z: 0.5 * (1.0 - a_z * a_z),
        dt, n_steps, n_traj, base_seed, sample_every=sample_every,
        chunk=chunk, threads=threads)
    return times, stats.mean, stats.var


def feedback_impurity_path(run):
    """Impurity path of the idealized equator-locked feedback scheme.

    The per-step update is the exact relaxation of the equatorial impurity
    law, so the path is deterministic: the Wiener increments cancel out of
    the impurity and two different seeds give identical results.
    """
    n = run.n_steps
    times = run.dt * np.arange(n + 1)
    decay = np.exp(-8.0 * run.k * run.dt)
    imp = np.empty(n + 1)
    imp[0] = 0.5
    for i in range(n):
        imp[i + 1] = imp[i] * decay
    return times, imp


def time_to_target_feedback(target, k, start=0.5):
    """Exact time for the feedback law to reach the target impurity."""
    if not 0 < target < start:
        raise ValueError("target must lie in (0, start)")
    return float(np.log(start / target) / (8.0 * k))


def time_to_target_nofeedback(target, k):
    """Bisection solve of nofeedback_impurity(t) = target, to 1e-4 in k t."""
    if not 0 < target < 0.5:
        raise ValueError("target must lie in (0, 0.5)")
    lo = 0.0
    hi = 1.0 / k
    for _ in range(200):
        if nofeedback_impurity(hi, k) < target:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the target impurity")
    while (hi - lo) * k > _TOL_KT:
        mid = 0.5 * (lo + hi)
        if nofeedback_impurity(mid, k) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def speedup_ratio(target, k=1.0):
    """Feedback time over no-feedback time to a common target impurity."""
    return time_to_target_feedback(target, k) / time_to_target_nofeedback(target, k)
