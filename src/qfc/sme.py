"""Stochastic master equation engine for small dense systems.

Convention: a channel carries an explicit rate, so the deterministic part
contributes rate * D[c] rho and a monitored channel adds
sqrt(rate * efficiency) * H[c] rho dW.  Qubit dephasing of strength k is the
channel (sigma_z, rate 2k), which decays coherences at 4k and drives the
Bloch z component with sqrt(8k) (1 - a_z^2) dW.

``sme_step`` is the one stepping kernel: a conditioned Euler step of a
density matrix (d, d) or a batch (..., d, d), written with ``dissipator``,
the commutator and ``meas_superop`` and divided by the trace.
``lindblad_step`` is its noiseless form, and the exact unitary when the
model has no channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import dag
# perfbench/tracer.py counts the draws of the RngStream it finds here
from .stochastic import (IntegrationError, RngStream, arg_problems,  # noqa: F401
                         raise_problems, run_ensemble, run_problems, sech)


def dissipator(c, rho):
    """D[c] rho = c rho c^dag - (c^dag c rho + rho c^dag c) / 2; rho (..., d, d)."""
    cd = dag(c)
    cdc = cd @ c
    return c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)


def meas_superop(c, rho):
    """H[c] rho = c rho + rho c^dag - <c + c^dag> rho; rho (..., d, d)."""
    cd = dag(c)
    e = np.trace((c + cd) @ rho, axis1=-2, axis2=-1).real
    return c @ rho + rho @ cd - np.asarray(e)[..., None, None] * rho


@dataclass
class Channel:
    """One Lindblad channel; efficiency > 0 marks it as monitored."""

    op: np.ndarray
    rate: float
    efficiency: float = 0.0

    def __post_init__(self):
        self.op = np.asarray(self.op, dtype=complex)
        problems = []
        if self.op.ndim != 2 or self.op.shape[0] != self.op.shape[1]:
            problems.append(f"channel operator must be square, got shape {self.op.shape}")
        elif not np.isfinite(self.op).all():
            problems.append("channel operator must be finite")
        problems += arg_problems([("channel rate", self.rate)])
        if not 0.0 <= self.efficiency <= 1.0:
            problems.append(f"efficiency must lie in [0, 1], got {self.efficiency!r}")
        raise_problems(problems)


@dataclass
class SmeModel:
    """H(t) = hamiltonian_base + u(t, rho) * control_channel, plus channels.

    control_law(t, rho) receives one state (d, d) or a batch (..., d, d) and
    returns a scalar or one value per state.
    """

    dim: int
    hamiltonian_base: np.ndarray | None = None
    control_channel: np.ndarray | None = None
    control_law: object = None  # callable (t, rho) -> real
    channels: list = field(default_factory=list)

    def __post_init__(self):
        problems = arg_problems(counts=[("dim", self.dim, 2)])
        if not problems:
            self.dim = int(self.dim)
        shape = (self.dim, self.dim)
        for name in ("hamiltonian_base", "control_channel"):
            h = getattr(self, name)
            if h is not None:
                h = np.asarray(h, dtype=complex)
                if h.shape != shape:
                    problems.append(f"{name} must be {shape}, got shape {h.shape}")
                elif not np.isfinite(h).all():
                    problems.append(f"{name} must be finite")
                setattr(self, name, h)
        problems += [f"channel {i} operator must be {shape}, got shape {ch.op.shape}"
                     for i, ch in enumerate(self.channels) if ch.op.shape != shape]
        raise_problems(problems)

    def measured(self):
        return [ch for ch in self.channels if ch.efficiency > 0.0]

    def hamiltonian(self, t, rho):
        """H(t, rho): (d, d), or one per state when the control law returns
        one value per state of a batch."""
        h = self.hamiltonian_base
        if self.control_channel is not None and self.control_law is not None:
            u = np.asarray(self.control_law(t, rho), dtype=float)
            hb = u[..., None, None] * self.control_channel
            h = hb if h is None else h + hb
        return h


def _drift(model, rho, t):
    """-i[H(t, rho), rho] + sum rate D[c] rho, the deterministic d rho / dt."""
    h = model.hamiltonian(t, rho)
    out = np.zeros_like(rho) if h is None else -1j * (h @ rho - rho @ h)
    for ch in model.channels:
        out += ch.rate * dissipator(ch.op, rho)
    return out


def sme_step(model, rho, dt, dws, t=0.0):
    """Advance states one conditioned Euler step; the batched kernel.

    rho holds one state (d, d) or a batch (..., d, d), and the trailing axis
    of dws one Wiener increment per monitored channel, in model order.  The
    step is rho + dt (-i[H, rho] + sum rate D[c] rho) + sum sqrt(rate eta)
    H[c] rho dW, with coefficients at the left endpoint, divided by its
    trace.  Returns a new array.
    """
    rho = np.asarray(rho, dtype=complex)
    dws = np.asarray(dws, dtype=float)
    measured = model.measured()
    if dws.shape[-1:] != (len(measured),):
        raise ValueError(f"got increments of shape {dws.shape} for "
                         f"{len(measured)} monitored channels")
    out = rho + dt * _drift(model, rho, t)
    for ch, dw in zip(measured, np.moveaxis(dws, -1, 0)):
        out += (math.sqrt(ch.rate * ch.efficiency) * dw[..., None, None]
                * meas_superop(ch.op, rho))
    tr = np.trace(out, axis1=-2, axis2=-1).real
    if not (tr.min() > 0.0 and tr.max() < np.inf):  # NaN fails both
        raise IntegrationError("trace lost during SME step")
    return out / tr[..., None, None]


def lindblad_step(model, rho, dt, t=0.0):
    """One deterministic step of a state (d, d) or a batch (..., d, d).

    Without channels the step is the exact unitary conjugation by
    U = exp(-i H dt) = V diag(e^{-i lambda dt}) V^dag, from the eigenpairs
    (lambda, V) of the Hermitian H, which keeps the spectrum (and hence the
    entropy) fixed to machine precision.  With channels it is ``sme_step``
    with no noise.
    """
    rho = np.asarray(rho, dtype=complex)
    if model.channels:
        return sme_step(model, rho, dt, np.zeros(len(model.measured())), t)
    h = model.hamiltonian(t, rho)
    if h is None:
        return rho.copy()
    lam, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * dt * lam)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return u @ rho @ np.conj(np.swapaxes(u, -1, -2))


def run_dephasing_ensemble(k, dt, n_steps, n_traj, base_seed, sample_every=1):
    """Qubit dephasing trajectories (sigma_z, rate 2k) from the |+> state,
    run by ``run_ensemble``.

    sigma_z is measured non-demolition, so the conditioned state is exact in
    the record y = +-c t + B_t, c = sqrt(8k): Re rho_01 = sech(c y) / 2,
    which is even in y, so the sign of the drift needs no draw.  Returns
    (times, mean, var) of Re rho_01 at every sample_every-th step of dt.
    """
    k = float(k)
    raise_problems(arg_problems([("k", k)])
                   + run_problems(dt, n_steps, n_traj, base_seed, sample_every))
    amp = math.sqrt(8.0 * k)
    times, stats = run_ensemble(
        amp, lambda y, t: 0.5 * sech(amp * y), dt, n_steps, n_traj, base_seed,
        sample_every=sample_every)
    return times, stats.mean, stats.var


def purity_derivative_check(model, rho, t=0.0):
    """d Tr(rho^2)/dt = 2 Re Tr(rho drho/dt) under the deterministic
    generator, for models whose Hamiltonian commutes with every channel.

    Raises if a commutator norm exceeds 1e-10; the returned derivative is
    non-positive (up to rounding) for such models.
    """
    parts = [p for p in (model.hamiltonian_base, model.control_channel)
             if p is not None]
    if any(np.max(np.abs(p @ ch.op - ch.op @ p)) > 1e-10
           for ch in model.channels for p in parts):
        raise ValueError("Hamiltonian does not commute with a channel")
    rho = np.asarray(rho, dtype=complex)
    return float(2.0 * np.trace(rho @ _drift(model, rho, t)).real)
