"""Rapid purification of a qubit under continuous sigma_z monitoring.

The measurement is quantum non-demolition: sigma_z commutes with every other
term, so the conditioned state is a closed-form function of the integrated
record y_t = +-c t + B_t, c = sqrt(8k).  From the maximally mixed state the
Bloch component is a_z = tanh(c y), the transverse ones stay zero, and the
impurity (1 - |a|^2)/2 is sech^2(c y) / 2; by the symmetry of B the sign of
the drift does not change its law.  The ensemble-average impurity is then
nofeedback_impurity, an integral over the record evaluated by the trapezoid
rule; with the idealized feedback that keeps the state on the equator the
transverse diffusion cancels exactly, leaving the deterministic law
impurity(t) = impurity(0) exp(-8 k t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/tracer.py patches the RngStream it finds here
from .stochastic import (RngStream, arg_problems, raise_problems, run_ensemble,  # noqa: F401
                         run_problems, sech, step_count, step_problems)

_TOL_KT = 1e-4  # bisection tolerance of time_to_target_nofeedback in k t, relative below 1


@dataclass
class PurificationRun:
    """Parameters of one purification experiment; one ValueError names every bad one."""

    k: float
    dt: float
    horizon: float
    seed: int = 0

    def __post_init__(self):
        problems = arg_problems([("k", self.k), ("dt", self.dt), ("horizon", self.horizon)])
        raise_problems(problems or step_problems("horizon / dt", self.horizon, self.dt))

    @property
    def n_steps(self):
        return step_count(self.horizon, self.dt)


# Trapezoid nodes j h: with h = min(0.25, 0.28/a) the cut-off min(9, 40/a)
# is at most j = 40/0.28 < 143.
_NODES = np.arange(144)
# Times per block of nofeedback_impurity_curve, which bounds each of its
# (block x 144) temporaries to 2.4 MB however many times it is given
_CURVE_BLOCK = 2048


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
    t = 0 returns 1/2 exactly.  The times go through in blocks of
    _CURVE_BLOCK, and each time's sum is the same whichever block holds it.
    """
    raise_problems(arg_problems([("k", k)]))
    t = np.asarray(ts, dtype=float)
    bad = t[~(np.isfinite(t) & (t >= 0.0))]
    if bad.size:
        raise ValueError(f"t must be non-negative and finite, got {float(bad[0])!r}")
    flat = t.ravel()
    val = np.empty_like(flat)
    for lo in range(0, flat.size, _CURVE_BLOCK):
        a = np.sqrt(8.0 * k * flat[lo:lo + _CURVE_BLOCK])[:, None]
        with np.errstate(divide="ignore"):
            h = np.minimum(0.25, 0.28 / a)
            u_max = np.minimum(9.0, 40.0 / a)
        u = h * _NODES
        # sech written to avoid cosh overflow at large u
        f = np.where(u <= u_max, 2.0 * np.exp(-0.5 * u * u - a * u)
                     / (1.0 + np.exp(-2.0 * a * u)), 0.0)
        f[:, 0] = 0.5
        val[lo:lo + _CURVE_BLOCK] = h[:, 0] * f.sum(axis=-1)
    imp = 2.0 * val.reshape(t.shape) * np.exp(-4.0 * k * t) / np.sqrt(8.0 * np.pi)
    return np.where(t == 0.0, 0.5, imp)


def mc_nofeedback_impurity(k, dt, n_steps, n_traj, base_seed, sample_every=1):
    """Monte-Carlo ensemble of the no-feedback scheme from the mixed state,
    run by ``run_ensemble`` on the record y = c t + B_t, c = sqrt(8k).

    Returns (times, mean, var) of the impurity sech^2(c y) / 2 at every
    sample_every-th step of dt.
    """
    raise_problems(arg_problems([("k", k)])
                   + run_problems(dt, n_steps, n_traj, base_seed, sample_every))
    amp = np.sqrt(8.0 * float(k))
    times, stats = run_ensemble(
        amp, lambda y, t: 0.5 * sech(amp * y) ** 2, dt, n_steps, n_traj,
        base_seed, sample_every=sample_every)
    return times, stats.mean, stats.var


def feedback_impurity_path(run):
    """Impurity path of the idealized equator-locked feedback scheme:
    0.5 exp(-8 k t) at t = 0, dt, ..., n_steps dt.

    The Wiener increments cancel out of the impurity, so the path is
    deterministic and does not depend on the seed.
    """
    times = run.dt * np.arange(run.n_steps + 1)
    return times, 0.5 * np.exp(-8.0 * run.k * times)


def target_problems(target, k):
    """[the messages] unless the target impurity lies in [1e-300, 0.5) and a positive k is
    at least 1e-300: below, 0.5 / target or the no-feedback bracket from 1/k overflows."""
    rules = ((1e-300 <= target < 0.5, f"target must lie in [1e-300, 0.5), got {target!r}"),
             (not 0 < k < 1e-300, f"k must be at least 1e-300, got {k!r}"))
    return [message for ok, message in rules if not ok]


def time_to_target_feedback(target, k):
    """Exact time for the feedback law to reach the target impurity."""
    raise_problems(target_problems(target, k) + arg_problems([("k", k)]))
    return float(np.log(0.5 / target) / (8.0 * k))


def time_to_target_nofeedback(target, k):
    """Bisection solve of nofeedback_impurity(t) = target, to 1e-4 in k t, or
    1e-4 of k t where that is below 1: near target 1/2, k t is far below 1e-4."""
    raise_problems(target_problems(target, k) + arg_problems([("k", k)]))
    lo = 0.0
    hi = 1.0 / k
    for _ in range(200):
        if nofeedback_impurity(hi, k) < target:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the target impurity")
    while (hi - lo) * k > _TOL_KT * min(1.0, k * (lo + hi) / 2):
        mid = 0.5 * (lo + hi)
        if nofeedback_impurity(mid, k) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def speedup_ratio(target):
    """Feedback time over no-feedback time to a common target impurity; both
    times scale as 1/k, so the ratio is taken at k = 1."""
    return time_to_target_feedback(target, 1.0) / time_to_target_nofeedback(target, 1.0)
