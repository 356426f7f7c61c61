"""Stochastic master equation engine for small dense systems.

Convention: a channel carries an explicit rate, so the deterministic part
contributes rate * D[c] rho and a monitored channel adds
sqrt(rate * efficiency) * H[c] rho dW.  Qubit dephasing of strength k is the
channel (sigma_z, rate 2k), which decays coherences at 4k and drives the
Bloch z component with sqrt(8k) (1 - a_z^2) dW.

States are stepped in real Hermitian coordinates, d^2 reals per state,
x = (rho_ii; Re rho_ij, i < j; Im rho_ij, i < j), and a batch of m states is
an (m, d^2) array (``to_coords``, ``from_coords``).  Each map the engine
applies is real-linear and keeps matrices Hermitian, so it acts on x as a
real d^2 x d^2 matrix.  ``SmeModel.generator`` builds them once per model,
on first use, by applying ``dissipator``, the commutator and the linear part
of ``meas_superop`` to the basis matrices from_coords(e_k): the drift S
(-i[H_base, .] plus every rate * D[c]), the control term C
(-i[control_channel, .]) and, per monitored channel, M (the linear part of
sqrt(rate eta) H[c]) with weights w, x . w = sqrt(rate eta) <c + c^dag>.
One Euler step (``step``) is x + dt (x S^T + u x C^T) + sum_j dW_j (x M_j^T
- (x . w_j) x), divided by the trace (the sum of the diagonal coordinates).
States are Hermitian by construction; nothing needs re-symmetrising.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .states import dag
# perfbench/tracer.py counts the draws of the RngStream it finds here
from .stochastic import IntegrationError, RngStream, run_ensemble, sech  # noqa: F401


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


@functools.lru_cache(maxsize=None)
def _basis(d):
    """(B, A) on flattened d x d matrices: row k of B is the Hermitian basis
    matrix E_k = from_coords(e_k), so from_coords is x @ B and to_coords is
    Re(rho @ A)."""
    iu, ju = np.triu_indices(d, 1)
    n, k = iu.size, np.arange(iu.size)
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[range(d), range(d), range(d)] = 1.0
    basis[d + k, iu, ju] = basis[d + k, ju, iu] = 1.0
    basis[d + n + k, iu, ju], basis[d + n + k, ju, iu] = 1j, -1j
    basis = basis.reshape(d * d, d * d)
    return basis, basis.conj().T / (basis * basis.conj()).real.sum(axis=1)


def to_coords(rho):
    """Real coordinates (..., d^2) of Hermitian matrices rho (..., d, d)."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[-1]
    return (rho.reshape(rho.shape[:-2] + (d * d,)) @ _basis(d)[1]).real


def from_coords(x):
    """The Hermitian matrices (..., d, d) with real coordinates x (..., d^2)."""
    x = np.asarray(x, dtype=float)
    d = math.isqrt(x.shape[-1])
    return (x @ _basis(d)[0]).reshape(x.shape[:-1] + (d, d))


@dataclass
class Channel:
    """One Lindblad channel; efficiency > 0 marks it as monitored."""

    op: np.ndarray
    rate: float
    efficiency: float = 0.0

    def __post_init__(self):
        self.op = np.asarray(self.op, dtype=complex)
        if self.op.ndim != 2 or self.op.shape[0] != self.op.shape[1]:
            raise ValueError("channel operator must be square")
        if not 0 < self.rate < math.inf:
            raise ValueError("channel rate must be positive and finite")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")


@dataclass(frozen=True)
class Generator:
    """S, C and (M, w) per monitored channel (module docstring); rows x @ op."""

    drift: np.ndarray
    control: np.ndarray | None
    monitored: tuple


@dataclass
class SmeModel:
    """H(t) = hamiltonian_base + u(t, rho) * control_channel, plus channels.

    control_law(t, rho) receives one state (d, d) or a batch (m, d, d) and
    returns a scalar or one value per state.  A model is treated as fixed
    once stepped: its generator is built on first use and kept.
    """

    dim: int
    hamiltonian_base: np.ndarray | None = None
    control_channel: np.ndarray | None = None
    control_law: object = None  # callable (t, rho) -> real
    channels: list = field(default_factory=list)

    def __post_init__(self):
        self.dim = int(self.dim)
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        for name in ("hamiltonian_base", "control_channel"):
            h = getattr(self, name)
            if h is not None:
                h = np.asarray(h, dtype=complex)
                if h.shape != (self.dim, self.dim):
                    raise ValueError(f"{name} must be {self.dim}x{self.dim}")
                setattr(self, name, h)
        for ch in self.channels:
            if ch.op.shape != (self.dim, self.dim):
                raise ValueError("channel operator dimension mismatch")

    def measured(self):
        return [ch for ch in self.channels if ch.efficiency > 0.0]

    def hamiltonian(self, t, rho):
        h = self.hamiltonian_base
        if self.control_channel is not None and self.control_law is not None:
            hb = float(self.control_law(t, rho)) * self.control_channel
            h = hb if h is None else h + hb
        return h

    @functools.cached_property
    def generator(self):
        """The model's Generator, built on first use."""
        d2 = self.dim * self.dim
        basis = _basis(self.dim)[0].reshape(d2, self.dim, self.dim)

        def commutator(h):
            return -1j * (h @ basis - basis @ h)

        drift = np.zeros_like(basis)
        if self.hamiltonian_base is not None:
            drift += commutator(self.hamiltonian_base)
        for ch in self.channels:
            drift += ch.rate * dissipator(ch.op, basis)
        control = None
        if self.control_channel is not None and self.control_law is not None:
            control = to_coords(commutator(self.control_channel))
        monitored = []
        for ch in self.measured():
            amp = math.sqrt(ch.rate * ch.efficiency)
            w = np.trace((ch.op + dag(ch.op)) @ basis, axis1=1, axis2=2).real
            # meas_superop took <c + c^dag> E_k off the image of E_k; the
            # kernel takes that term per state, so add it back
            lin = to_coords(meas_superop(ch.op, basis)) + np.diag(w)
            monitored.append((amp * lin, amp * w))
        return Generator(to_coords(drift), control, tuple(monitored))


def _drift(model, x, t):
    """Time derivative of the coordinate rows x under the deterministic part."""
    gen = model.generator
    out = x @ gen.drift
    if gen.control is not None:
        u = np.asarray(model.control_law(t, from_coords(x)), dtype=float)
        out += np.reshape(u, (-1, 1)) * (x @ gen.control)
    return out


def step(model, x, dt, dw, t=0.0):
    """Advance m states one conditioned Euler step; the batched kernel.

    x holds the states as coordinate rows (m, d^2) and dw one Wiener
    increment per state and monitored channel (m, n_mon), in model order.
    Coefficients are taken at the left endpoint and every row is divided by
    its trace.  Returns a new (m, d^2) array.
    """
    out = x + dt * _drift(model, x, t)
    for j, (meas, w) in enumerate(model.generator.monitored):
        out += dw[:, j, None] * (x @ meas - (x @ w)[:, None] * x)
    tr = out[:, :model.dim].sum(axis=1)
    if not (tr.min() > 0.0 and tr.max() < np.inf):  # NaN fails both
        raise IntegrationError("trace lost during SME step")
    return out / tr[:, None]


def lindblad_step(model, rho, dt, t=0.0):
    """One deterministic step.

    Without channels the step is the exact unitary conjugation by
    U = exp(-i H dt) = V diag(e^{-i lambda dt}) V^dag, from the eigenpairs
    (lambda, V) of the Hermitian H, which keeps the spectrum (and hence the
    entropy) fixed to machine precision.  With channels it is the kernel's
    Euler step with no noise, renormalized by the trace.
    """
    rho = np.asarray(rho, dtype=complex)
    if model.channels:
        return sme_step(model, rho, dt, np.zeros(len(model.measured())), t)
    h = model.hamiltonian(t, rho)
    if h is None:
        return rho.copy()
    lam, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * dt * lam)) @ v.conj().T
    return u @ rho @ u.conj().T


def sme_step(model, rho, dt, dws, t=0.0):
    """One conditioned Euler step of a single state: ``step`` with m = 1.

    dws holds one Wiener increment per monitored channel, in model order.
    """
    dws = np.asarray(dws, dtype=float).reshape(1, -1)
    n_mon = len(model.generator.monitored)
    if dws.size != n_mon:
        raise ValueError(f"got {dws.size} increments for {n_mon} monitored channels")
    return from_coords(step(model, to_coords(rho)[None], dt, dws, t))[0]


def run_dephasing_ensemble(k, dt, n_steps, n_traj, base_seed, sample_every=1):
    """Qubit dephasing trajectories (sigma_z, rate 2k) from the |+> state,
    run by ``run_ensemble``.

    sigma_z is measured non-demolition, so the conditioned state is exact in
    the record y = +-c t + B_t, c = sqrt(8k): Re rho_01 = sech(c y) / 2,
    which is even in y, so the sign of the drift needs no draw.  Returns
    (times, mean, var) of Re rho_01 at every sample_every-th step of dt.
    """
    k = float(k)
    if not 0 < k < math.inf:
        raise ValueError("k must be positive and finite")
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
    x = to_coords(rho)[None]
    rho, drho = from_coords(np.concatenate([x, _drift(model, x, t)]))
    return float(2.0 * np.vdot(rho, drho).real)
