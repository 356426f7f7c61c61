"""Rapid purification of a qubit under continuous sigma_z monitoring.

The Bloch components of the conditioned state obey

    da_x = -(4k dt + a_z sqrt(8k) dW) a_x        (same for a_y)
    da_z = (1 - a_z^2) sqrt(8k) dW

and the impurity is (1 - |a|^2)/2.  Without feedback the ensemble-average
impurity from the maximally mixed state is the quadrature nofeedback_impurity;
with the idealized feedback that keeps the state on the equator the
transverse diffusion cancels exactly, leaving the deterministic law
impurity(t) = impurity(0) exp(-8 k t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .stochastic import RngStream, run_ensemble, wiener_steps


@dataclass
class PurificationRun:
    """Parameters of one purification experiment."""

    k: float
    dt: float
    horizon: float
    feedback: bool = False
    target_impurity: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.dt <= 0 or self.dt * self.k > 1e-3 * (1 + 1e-12):
            raise ValueError("dt must satisfy 0 < k dt <= 1e-3")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not 0.0 < self.target_impurity < 0.5:
            raise ValueError("target impurity must lie in (0, 0.5)")

    @property
    def n_steps(self):
        return int(round(self.horizon / self.dt))


def bloch_sme_step(v, k, dt, dw):
    """One Euler step of the conditioned Bloch equations.

    Works on arrays of shape (..., 3) with matching dw shape (...); the result
    is clamped back onto the unit ball.
    """
    v = np.asarray(v, dtype=float)
    a_z = v[..., 2]
    amp = np.sqrt(8.0 * k)
    factor = 1.0 - 4.0 * k * dt - a_z * amp * np.asarray(dw)
    out = np.empty_like(v)
    out[..., 0] = v[..., 0] * factor
    out[..., 1] = v[..., 1] * factor
    out[..., 2] = a_z + (1.0 - a_z * a_z) * amp * np.asarray(dw)
    norm = np.sqrt((out * out).sum(axis=-1))
    scale = np.where(norm > 1.0, norm, 1.0)
    return out / scale[..., None]


def impurity(v):
    """(1 - |a|^2) / 2 for Bloch vectors with shape (..., 3)."""
    v = np.asarray(v, dtype=float)
    return 0.5 * (1.0 - (v * v).sum(axis=-1))


def transverse_phase(v):
    """atan2(a_x, a_y); conserved by the monitoring dynamics."""
    v = np.asarray(v, dtype=float)
    return np.arctan2(v[..., 0], v[..., 1])


def nofeedback_impurity(t, k):
    """Ensemble-average impurity of monitoring without feedback, started from
    the maximally mixed state.

    Evaluates exp(-4kt)/sqrt(8 pi) * Int exp(-u^2/2)/cosh(sqrt(8kt) u) du by
    adaptive quadrature; t = 0 returns 1/2 exactly.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0.0:
        return 0.5
    a = np.sqrt(8.0 * k * t)

    def integrand(u):
        # sech written to avoid cosh overflow at large u
        return 2.0 * np.exp(-0.5 * u * u - a * u) / (1.0 + np.exp(-2.0 * a * u))

    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-11)
    return float(2.0 * val * np.exp(-4.0 * k * t) / np.sqrt(8.0 * np.pi))


def nofeedback_impurity_curve(ts, k):
    return np.array([nofeedback_impurity(t, k) for t in np.asarray(ts, float)])


def mc_nofeedback_impurity(k, dt, n_steps, n_traj, base_seed, sample_every=1,
                           chunk=1000, threads=1):
    """Monte-Carlo ensemble of the no-feedback scheme from the mixed state.

    From the origin the transverse components stay zero, so each trajectory
    reduces to its a_z component.  Returns (times, mean, var) of the impurity
    at every sample_every-th step, reduced by ``run_ensemble``.
    """
    k = float(k)
    n_steps = int(n_steps)
    sample_every = max(1, int(sample_every))
    idx = np.arange(0, n_steps + 1, sample_every)
    amp = np.sqrt(8.0 * k)

    def batch(streams):
        a_z = np.zeros(len(streams))
        imp = np.empty((len(streams), len(idx)))
        imp[:, 0] = 0.5
        for s, dw in enumerate(wiener_steps(streams, dt, n_steps), 1):
            a_z += (1.0 - a_z * a_z) * amp * dw
            np.minimum(np.maximum(a_z, -1.0, out=a_z), 1.0, out=a_z)  # np.clip, faster
            if s % sample_every == 0:
                imp[:, s // sample_every] = 0.5 * (1.0 - a_z * a_z)
        return imp

    stats = run_ensemble(batch, n_traj, base_seed, chunk=chunk, threads=threads)
    return dt * idx, stats.mean, stats.var


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


def feedback_purify_finite(run, max_rate):
    """Finite-strength variant: rotate toward the equator at most max_rate
    radians per unit time after each diffusion step.  Exposed for exploration;
    no closed-form target is attached to it."""
    if max_rate <= 0:
        raise ValueError("max_rate must be positive")
    stream = RngStream(run.seed, 0)
    n = run.n_steps
    dws = stream.wiener(run.dt, n)
    v = np.zeros(3)
    v[1] = 1e-12  # break the azimuthal degeneracy of the mixed state
    times = run.dt * np.arange(n + 1)
    imp = np.empty(n + 1)
    imp[0] = impurity(v)
    cap = max_rate * run.dt
    for i in range(n):
        v = bloch_sme_step(v, run.k, run.dt, dws[i])
        r_t = np.hypot(v[0], v[1])
        alpha = np.arctan2(v[2], r_t)
        delta = np.clip(-alpha, -cap, cap)
        c, s = np.cos(delta), np.sin(delta)
        r_new = r_t * c - v[2] * s
        z_new = r_t * s + v[2] * c
        if r_t > 0:
            v = np.array([v[0] * r_new / r_t, v[1] * r_new / r_t, z_new])
        else:
            v = np.array([0.0, r_new, z_new])
        imp[i + 1] = impurity(v)
    return times, imp


def time_to_target_feedback(target, k, start=0.5):
    """Exact time for the feedback law to reach the target impurity."""
    if not 0 < target < start:
        raise ValueError("target must lie in (0, start)")
    return float(np.log(start / target) / (8.0 * k))


def time_to_target_nofeedback(target, k, tol_kt=1e-4):
    """Bisection solve of nofeedback_impurity(t) = target (tolerance in k t)."""
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
    while (hi - lo) * k > tol_kt:
        mid = 0.5 * (lo + hi)
        if nofeedback_impurity(mid, k) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def speedup_ratio(target, k=1.0):
    """Feedback time over no-feedback time to a common target impurity."""
    return time_to_target_feedback(target, k) / time_to_target_nofeedback(target, k)
