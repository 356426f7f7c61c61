"""Discrete-time protection of two non-orthogonal qubit states against dephasing.

The protected pair has Bloch vectors (cos theta, 0, +/- sin theta); the noise
applies sigma_z with probability p.  The source compares four strategies by
the average fidelity of the output with the intended state:

  1. do nothing,
  2. measure sigma_z and reprepare naively, a reference this module does not
     model,
  3. discriminate optimally, then prepare the best pair of recovery states,
  4. weak measurement of strength chi in the |0> +/- i|1> basis followed by a
     conditional rotation about z by the angle eta(p, theta, chi).

Schemes 1, 3 and 4 have closed forms; Monte-Carlo estimators sample the exact
branch distribution of each finite protocol.  With a = (1 - 2p) cos theta,
d = 1 - a^2 and u = sin chi, scheme 4 averages
(1 + cos theta sqrt(1 - d u^2) + sin^2 theta u) / 2, which is concave in u and
peaks at u* = sin^2 theta / sqrt(d (cos^2 theta d + sin^4 theta)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import SZ, dag, density
from .stochastic import arg_problems, raise_problems

_HALF_PI = 0.5 * np.pi


def protected_pair(theta):
    """Amplitudes of the two protected states."""
    t1 = _HALF_PI - theta
    t2 = _HALF_PI + theta
    a1 = np.array([np.cos(t1 / 2.0), np.sin(t1 / 2.0)], dtype=complex)
    a2 = np.array([np.cos(t2 / 2.0), np.sin(t2 / 2.0)], dtype=complex)
    return a1, a2


def f1_do_nothing(p, theta):
    return 1.0 - np.asarray(p, dtype=float) * np.cos(theta) ** 2


def f3_discriminate_prepare(p, theta):
    """Discriminate, then prepare the fidelity-optimal recovery states.

    The dephasing shifts neither the discrimination observable nor the
    optimum, so the value depends only on theta.
    """
    del p
    theta = np.asarray(theta, dtype=float)
    out = 0.5 + 0.5 * np.sqrt(np.sin(theta) ** 4 + np.cos(theta) ** 2)
    return out if out.ndim else float(out)


def f4_closed(p, theta):
    """Closed form for the optimized weak-measurement-plus-rotation scheme."""
    p = np.asarray(p, dtype=float)
    theta = np.asarray(theta, dtype=float)
    c2 = np.cos(theta) ** 2
    den = 1.0 - (1.0 - 2.0 * p) ** 2 * c2
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 0.5 * (1.0 + np.sqrt(c2 + np.sin(theta) ** 4 / den))
    out = np.where(den <= 1e-15, 1.0, val)
    return out if out.ndim else float(out)


def weak_operator_pair(chi):
    """Kraus pair of the strength-chi measurement in the |0> +/- i|1> basis.

    chi = 0 is projective onto that basis; chi = pi/2 makes both operators
    proportional to the identity (no measurement).
    """
    if not 0.0 <= chi <= _HALF_PI:
        raise ValueError("chi must lie in [0, pi/2]")
    plus = np.array([1.0, 1j], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -1j], dtype=complex) / np.sqrt(2.0)
    p_pi = np.outer(plus, plus.conj())
    p_mi = np.outer(minus, minus.conj())
    c, s = np.cos(chi / 2.0), np.sin(chi / 2.0)
    return c * p_pi + s * p_mi, s * p_pi + c * p_mi


def feedback_angle(p, theta, chi):
    """Conditional rotation angle eta = arctan(1/((1-2p) cos theta tan chi)),
    clipped to [0, pi/2]."""
    den = (1.0 - 2.0 * p) * np.cos(theta) * np.tan(chi)
    if den <= 0.0:
        return _HALF_PI
    return float(np.clip(np.arctan(1.0 / den), 0.0, _HALF_PI))


def _z_half(angle):
    # exp(+i angle sigma_z / 2); the sign convention is fixed by requiring the
    # optimized channel to reproduce f4_closed.
    return np.diag([np.exp(0.5j * angle), np.exp(-0.5j * angle)])


def correction_pair(p, theta, chi):
    """Rotations applied after outcomes 0 and 1 of the weak measurement."""
    eta = feedback_angle(p, theta, chi)
    return _z_half(eta), _z_half(-eta)


def channel_average_fidelity(p, theta, chi):
    """Exact average of scheme 4 at fixed chi (both inputs equally likely)."""
    probs, vals = _branch_table("weak", p, theta, chi)
    return float(probs @ vals)


def optimize_chi(p, theta):
    """The chi that maximizes the scheme-4 channel average, and that average.

    At u = sin chi the average is (1 + cos theta sqrt(1 - d u^2) + sin^2 theta u) / 2
    with d = 1 - ((1 - 2p) cos theta)^2; setting its u-derivative to zero gives
    u* = sin^2 theta / sqrt(d (cos^2 theta d + sin^4 theta)), and chi = pi/2
    (no measurement) when u* >= 1.  At p = 0, where u* is 1 up to rounding,
    chi = pi/2 is returned exactly.
    """
    if p == 0:
        return _HALF_PI, channel_average_fidelity(p, theta, _HALF_PI)
    d = 1.0 - ((1.0 - 2.0 * p) * np.cos(theta)) ** 2
    s2 = np.sin(theta) ** 2
    u = s2 / np.sqrt(d * (np.cos(theta) ** 2 * d + s2 * s2))
    chi = _HALF_PI if u >= 1.0 else float(np.arcsin(u))
    return chi, channel_average_fidelity(p, theta, chi)


def _recovery_axes(theta):
    # Optimal recovery Bloch axes after discrimination: posterior-weighted
    # mean of the target vectors, normalized.
    m_plus = np.array([np.cos(theta), 0.0, np.sin(theta) ** 2])
    u = m_plus / np.linalg.norm(m_plus)
    return u, u * np.array([1.0, 1.0, -1.0])


def _branch_table(scheme, p, theta, chi=None):
    """Exact outcome tree of one protocol round: (probabilities, fidelities)."""
    v = np.array([np.cos(theta), 0.0, np.sin(theta)])
    targets = [v, v * np.array([1.0, 1.0, -1.0])]
    psis = protected_pair(theta)
    probs, vals = [], []
    if scheme == "nothing":
        for j in range(2):
            for flip, pf in ((0, 1.0 - p), (1, p)):
                probs.append(0.5 * pf)
                out = targets[j] * (np.array([-1.0, -1.0, 1.0]) if flip else 1.0)
                vals.append(0.5 * (1.0 + out @ targets[j]))
    elif scheme == "discriminate":
        u_plus, u_minus = _recovery_axes(theta)
        axes = [u_plus, u_minus]
        for j in range(2):
            for flip, pf in ((0, 1.0 - p), (1, p)):
                for o, sign in ((0, 1.0), (1, -1.0)):
                    # sigma_z outcome +1 (o=0) guesses the +sin(theta) state
                    p_o = 0.5 * (1.0 + sign * targets[j][2])
                    probs.append(0.5 * pf * p_o)
                    vals.append(0.5 * (1.0 + axes[o] @ targets[j]))
    elif scheme == "weak":
        if chi is None:
            raise ValueError("weak scheme needs chi")
        m_ops = weak_operator_pair(chi)
        z_ops = correction_pair(p, theta, chi)
        for j in range(2):
            rho_j = density(psis[j])
            for flip, pf in ((0, 1.0 - p), (1, p)):
                rho = SZ @ rho_j @ SZ if flip else rho_j
                for m, z in zip(m_ops, z_ops):
                    un = m @ rho @ dag(m)
                    p_o = np.trace(un).real
                    out = z @ un @ dag(z)
                    probs.append(0.5 * pf * p_o)
                    vals.append(np.vdot(psis[j], out @ psis[j]).real / p_o)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    # a fidelity is at most 1; the division by p_o can round a pure branch above it
    return np.array(probs), np.minimum(np.array(vals), 1.0)


def mc_average_fidelity(scheme, p, theta, n_samples, rng, chi=None):
    """Sample n_samples protocol rounds; returns (estimate, standard error).

    Sampling draws multinomial counts over the exact branch distribution,
    which is identical in law to simulating the rounds one at a time.
    """
    raise_problems(arg_problems(counts=[("n_samples", n_samples, 2)]))
    if scheme == "weak" and chi is None:
        chi, _ = optimize_chi(p, theta)
    probs, vals = _branch_table(scheme, p, theta, chi)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"branch probabilities sum to {total}")
    counts = rng.gen.multinomial(n_samples, probs / total)
    mean = float(counts @ vals) / n_samples
    var = float(counts @ (vals - mean) ** 2) / n_samples
    return mean, float(np.sqrt(var / n_samples))


def scheme_closed_form(scheme, p, theta):
    if scheme == "nothing":
        return float(f1_do_nothing(p, theta))
    if scheme == "discriminate":
        return float(f3_discriminate_prepare(p, theta))
    if scheme == "weak":
        return float(f4_closed(p, theta))
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass
class GapSurface:
    """Closed-form fidelities and the scheme-4 advantage on a (p, theta) grid."""

    p: np.ndarray
    theta: np.ndarray
    f1: np.ndarray
    f3: np.ndarray
    f4: np.ndarray
    gap: np.ndarray

    def argmax(self):
        i, j = np.unravel_index(np.argmax(self.gap), self.gap.shape)
        return float(self.p[i]), float(self.theta[j]), float(self.gap[i, j])


def gap_surface(n_p=201, n_theta=201):
    """Evaluate the advantage F4 - max(F1, F3) on a regular grid over
    p in [0, 1/2] and theta in [0, pi/2]."""
    raise_problems(arg_problems(counts=[("n_p", n_p, 50), ("n_theta", n_theta, 50)]))
    ps = np.linspace(0.0, 0.5, int(n_p))
    ts = np.linspace(0.0, _HALF_PI, int(n_theta))
    pg = ps[:, None]
    tg = ts[None, :]
    f1 = f1_do_nothing(pg, tg)
    f3 = np.broadcast_to(f3_discriminate_prepare(pg, tg), (len(ps), len(ts))).copy()
    f4 = f4_closed(pg, tg)
    gap = f4 - np.maximum(f1, f3)
    return GapSurface(p=ps, theta=ts, f1=f1, f3=f3, f4=f4, gap=gap)
