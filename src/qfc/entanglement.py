"""Entanglement generation by continuous parity measurement and local feedback.

A single detector monitors sigma_z x sigma_z on a pair of qubits.  The
measurement cannot tell |00> from |11>, nor |01> from |10>, so the Hilbert
space splits into two decoherence-free blocks

    D+ = span{|00>, |11>},    D- = span{|01>, |10>},

and any state supported on one block is left strictly alone by the monitor.
The four-dimensional space factors into two encoded qubits: a which-block
qubit (q1) whose z axis is the measured parity, and a within-block qubit
(q2) the monitor never sees.  Purifying q1 onto the D- pole and then q2 onto
the symmetric axis of D- lands the pair on the Bell state
(|01> + |10>)/sqrt(2), and both feedback stages only ever need single-qubit
rotations.

Basis order throughout is |00>, |01>, |10>, |11|, first qubit most
significant, matching states.tensor_product.

entangle_protocol runs on the 16 real coordinates of the state
(sme.to_coords): its Euler step, feedback rotations and reads are fixed real
maps, built on first use by applying the matrix helpers here to the basis
matrices, so the helpers stay their one definition.  which_block_vector,
block_components, _r_squared and _q2_equator_purity are test oracles only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# perfbench/tracer.py patches this module's sme_step, clip_psd and RngStream
from .sme import Channel, SmeModel, from_coords, sme_step, to_coords
from .states import HADAMARD, SI, SX, SY, SZ, check_density, tensor_product
from .stochastic import IntegrationError, RngStream

I4 = np.eye(4, dtype=complex)
ZZ = tensor_product(SZ, SZ)
XX = tensor_product(SX, SX)
IX = tensor_product(SI, SX)
ZY = tensor_product(SZ, SY)
HH = tensor_product(HADAMARD, HADAMARD)

MINUS_PROJECTOR = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)

# Which-block qubit: (I x X, Z x Y, Z x Z) obey the Pauli algebra on the
# full space, and q1 below is the Bloch vector of the reduced which-block
# state.  Its x/y components are the inter-block coherences.
Q1_TRIPLE = (IX, ZY, ZZ)

# Within-block qubits, one triple per block.  Each is the restriction of
# (X x X, Y x X, Z x I) to its block; the two members of a pair vanish on
# the opposite block.
PLUS_TRIPLE = (
    0.5 * (tensor_product(SX, SX) - tensor_product(SY, SY)),
    0.5 * (tensor_product(SX, SY) + tensor_product(SY, SX)),
    0.5 * (tensor_product(SZ, SI) + tensor_product(SI, SZ)),
)
MINUS_TRIPLE = (
    0.5 * (tensor_product(SX, SX) + tensor_product(SY, SY)),
    0.5 * (tensor_product(SY, SX) - tensor_product(SX, SY)),
    0.5 * (tensor_product(SZ, SI) - tensor_product(SI, SZ)),
)

BELL_TARGET = np.zeros((4, 4), dtype=complex)
BELL_TARGET[1:3, 1:3] = 0.5


def _monitor(op, k):
    if k <= 0:
        raise ValueError("k must be positive")
    return SmeModel(dim=4, channels=[Channel(op=op, rate=2.0 * k, efficiency=1.0)])


@lru_cache
def parity_model(k):
    """Parity monitor with dephasing strength k, unit efficiency; cached per k."""
    return _monitor(ZZ, k)


@lru_cache
def toggled_parity_model(k):
    """The same monitor seen through local Hadamards on both qubits.

    Conjugation by H x H turns sigma_z x sigma_z into sigma_x x sigma_x, so
    running this model is identical to toggling the state with
    hadamard_toggle, running parity_model, and toggling back.
    """
    return _monitor(XX, k)


def two_qubit_sme_step(rho, k, dt, dw):
    """One conditioned Euler step of the parity monitor.

    States supported on a single block are exact fixed points: both the
    deterministic and the stochastic part vanish identically there.
    """
    return sme_step(parity_model(k), rho, dt, [dw])


def leakage_weight(rho):
    """Frobenius weight of the off-block corners, 2 sum |rho_ij|^2."""
    rho = np.asarray(rho, dtype=complex)
    corners = (rho[0, 1], rho[0, 2], rho[3, 1], rho[3, 2])
    return 2.0 * float(sum(abs(c) ** 2 for c in corners))


def hadamard_toggle(rho):
    """Conjugate by H x H.  Involutive; swaps the roles of ZZ and XX."""
    rho = np.asarray(rho, dtype=complex)
    return HH @ rho @ HH


def block_components(rho, block="minus"):
    """Unnormalized within-block triple expectations and the block weight.

    Returns (x, y, z, weight) with x, y, z the expectations of the block's
    triple on the unnormalized state; divide by weight for the conditional
    Bloch vector.
    """
    rho = np.asarray(rho, dtype=complex)
    if block == "minus":
        x = 2.0 * float(rho[1, 2].real)
        y = -2.0 * float(rho[1, 2].imag)
        z = float((rho[1, 1] - rho[2, 2]).real)
        w = float((rho[1, 1] + rho[2, 2]).real)
    elif block == "plus":
        x = 2.0 * float(rho[0, 3].real)
        y = -2.0 * float(rho[0, 3].imag)
        z = float((rho[0, 0] - rho[3, 3]).real)
        w = float((rho[0, 0] + rho[3, 3]).real)
    else:
        raise ValueError("block must be 'plus' or 'minus'")
    return x, y, z, w


def which_block_vector(rho):
    """Bloch vector of the which-block qubit, (<IX>, <ZY>, <ZZ>)."""
    rho = np.asarray(rho, dtype=complex)
    x = 2.0 * float((rho[0, 1] + rho[2, 3]).real)
    y = 2.0 * float((rho[2, 3] - rho[0, 1]).imag)
    z = float((rho[0, 0] - rho[1, 1] - rho[2, 2] + rho[3, 3]).real)
    return np.array([x, y, z])


def bell_fidelity(rho):
    """Overlap with the symmetric Bell state (|01> + |10>)/sqrt(2)."""
    rho = np.asarray(rho, dtype=complex)
    return float(0.5 * (rho[1, 1] + rho[2, 2] + 2.0 * rho[1, 2].real).real)


def clip_psd(rho):
    """Project onto the physical set: clamp negative eigenvalues, renormalize.

    Euler steps can push a nearly pure state slightly outside the Bloch
    body; clipping restores Tr rho^2 <= 1 and with it the R^2 <= 3 bound.
    """
    rho = np.asarray(rho, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    vals = np.clip(vals, 0.0, None)
    total = vals.sum()
    if total <= 0:
        raise ValueError("state has no positive weight left")
    return (vecs * (vals / total)) @ vecs.conj().T


def q1_rotation(beta):
    """Rotate the which-block qubit by beta about its x axis.

    Physically I x Rx(beta), a single rotation of the second qubit.
    """
    c, s = math.cos(0.5 * beta), math.sin(0.5 * beta)
    return c * I4 - 1j * s * IX


def q2_rotation(beta):
    """Rotate the within-block qubits by beta about their z axis.

    Physically Rz(beta/2) x Rz(-beta/2); diagonal, and the identity on the
    D+ corner states.
    """
    phase = np.exp(-0.5j * beta)
    return np.diag([1.0, phase, phase.conjugate(), 1.0]).astype(complex)


def _wrap_half(beta):
    # smallest rotation with the same axis-zeroing effect
    return (beta + 0.5 * math.pi) % math.pi - 0.5 * math.pi


def equator_hold_angle(y, z):
    """Minimal x-rotation returning (y, z) to the equator z = 0."""
    return _wrap_half(math.atan2(-z, y))


def align_down_angle(y, z):
    """X-rotation sending (y, z) to (0, -r): straight onto the D- pole."""
    return math.remainder(math.atan2(y, z) - math.pi, 2.0 * math.pi)


def phase_hold_angle(x, y):
    """Minimal z-rotation returning (x, y) to the plane x = 0."""
    return _wrap_half(math.atan2(x, y))


def azimuth_align_angle(x, y):
    """Z-rotation sending (x, y) to (r, 0): onto the Bell axis."""
    return -math.atan2(y, x)


@dataclass
class ProtocolResult:
    """Sampled trajectory of one protocol run.

    q2_purity is the equator-projected purity (1 + x^2 + y^2)/2 of the
    conditional D- qubit, the part a final phase rotation can convert into
    Bell fidelity.  dfs_time is when the state entered D-, None if it
    started there.
    """

    times: np.ndarray
    r_squared: np.ndarray
    leakage: np.ndarray
    q1_z: np.ndarray
    q2_purity: np.ndarray
    bell_fidelity: np.ndarray
    dfs_time: float | None
    final_state: np.ndarray
    final_fidelity: float


class ProtocolBudgetError(RuntimeError):
    """Feedback thresholds were not reached within the time budget."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


def _r_squared(rho):
    # 4 Tr rho^2 - 1, using the Frobenius norm of a Hermitian matrix
    return 4.0 * float(np.vdot(rho, rho).real) - 1.0


def _equator_purity(x, y, z, w):
    # of the D- qubit, from its unnormalized block_components (x, y, z, w)
    return 0.5 if w < 1e-12 else 0.5 * (1.0 + (x * x + y * y) / (w * w))


def _q2_equator_purity(rho):
    return _equator_purity(*block_components(rho, "minus"))


def _rotation_map(rotation, freqs, basis):
    """(x, beta) -> to_coords(u rho u^dag), u = rotation(beta), as one product
    x @ [R_0 | R_1 | ...] with fixed real maps, summed with the weights
    f(beta) = (1, cos(w beta), sin(w beta) for w in freqs)."""
    def harmonics(beta):
        return [1.0] + [f(w * beta) for w in freqs for f in (math.cos, math.sin)]

    # the weights are orthogonal on 8 angles a quarter turn apart (the 4 pi
    # period of the half angles); the R_j hold 0, +-1/2 and +-1, snapped
    betas = 0.5 * math.pi * np.arange(8)
    weights = np.array([harmonics(b) for b in betas])
    images = [to_coords(u @ basis @ u.conj().T).ravel() for u in map(rotation, betas)]
    fit = (weights.T @ images) / (weights * weights).sum(axis=0)[:, None]
    stack = np.hstack(np.round(2.0 * fit).reshape(-1, 16, 16) / 2.0)

    def rotate(x, beta):
        return np.array(harmonics(beta)) @ (x @ stack).reshape(-1, 16)
    return rotate


# columns of x @ reads: trace, q1, the D- block_components, Bell fidelity
_TR, _Q1X, _Q1Y, _Q1Z, _MX, _MY, _MZ, _MW, _FID = range(9)
# stage thresholds: |q1| for the D- rotation, the leakage that accepts it,
# and the D- qubit's equatorial purity that ends stage two
_Q1_THRESHOLD, _LEAKAGE_THRESHOLD, _PURITY_THRESHOLD = 0.999, 1e-3, 0.995


@lru_cache
def _coordinate_maps():
    """(reads, gram, leak, q1 map, q2 map) from the helpers applied to the
    basis E_k = from_coords(e_k): x @ reads gives the linear observables,
    Tr rho^2 is x . (gram x) and the leakage is x . (leak x)."""
    basis = from_coords(np.eye(16))
    ops = (I4,) + Q1_TRIPLE + MINUS_TRIPLE + (MINUS_PROJECTOR, BELL_TARGET)
    return (np.array([np.trace(op @ basis, axis1=1, axis2=2).real for op in ops]).T,
            np.array([np.vdot(e, e).real for e in basis]),
            np.array([leakage_weight(e) for e in basis]),
            _rotation_map(q1_rotation, (1.0,), basis),
            _rotation_map(q2_rotation, (0.5, 1.0), basis))


def entangle_protocol(rho0, k, dt, horizon, seed, *, sample_every=10):
    """Drive an arbitrary two-qubit state onto the symmetric Bell state.

    Stage one measures the parity while x-rotations of the second qubit
    hold the which-block qubit on its equator; once |q1| passes 0.999 the
    vector is rotated onto the D- pole, accepted when the off-block leakage
    is at most 1e-3.  Stage two toggles the monitored operator to XX via
    local Hadamards (run here directly as the toggled model) and holds the
    D- qubit's x component at zero with opposite local z-rotations until
    its equatorial purity passes 0.995; a last phase rotation lands on
    (|01> + |10>)/sqrt(2).

    Thresholds are checked before stepping, so a state already at the
    target returns immediately, before any step.  Raises
    ProtocolBudgetError (carrying the partial trajectory) if the horizon
    runs out first.

    One Euler step, sme.step for one row, is y = x @ K with the fused
    K = [I + dt S | M | w] of the stage's model, then y[:16] + dW (y[16:32]
    - y[32] x) over its trace.  The state becomes a matrix again only for
    final_state and for the clip_psd repair when Tr rho^2 > 1 + 1e-12.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if k * dt > 1e-3 * (1.0 + 1e-12):
        raise ValueError("k*dt must not exceed 1e-3")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    rho = check_density(rho0)
    if rho.shape != (4, 4):
        raise ValueError("state must be two-qubit")
    # parity_model(k) rejects k <= 0
    reads, gram, leak, rotate_q1, rotate_q2 = _coordinate_maps()

    def fused_step(model):
        ((meas, w),) = model.generator.monitored
        return np.hstack([np.eye(16) + dt * model.generator.drift, meas, w[:, None]])

    stages = {
        1: (fused_step(parity_model(k)), rotate_q1, equator_hold_angle, _Q1Y, _Q1Z),
        2: (fused_step(toggled_parity_model(k)), rotate_q2, phase_hold_angle, _MX, _MY)}
    n_max = int(round(horizon / dt))
    dws = RngStream(seed, 0).wiener(dt, n_max)
    samples = {}  # t -> x; a rotation at a sample time supersedes the row

    def package():
        xs = np.array(list(samples.values()))
        obs, squares, final_state = xs @ reads, xs * xs, from_coords(x)
        purity = [_equator_purity(*o[_MX:_FID]) for o in obs.tolist()]
        return ProtocolResult(
            times=np.array(list(samples)), r_squared=4.0 * (squares @ gram) - 1.0,
            leakage=squares @ leak, q1_z=obs[:, _Q1Z], q2_purity=np.array(purity),
            bell_fidelity=obs[:, _FID], dfs_time=dfs_time, final_state=final_state,
            final_fidelity=bell_fidelity(final_state))

    stage, dfs_time = 1, None
    samples[0.0] = x = to_coords(rho)
    r = (x @ reads).tolist()
    for step in range(n_max + 1):
        t = step * dt
        if stage == 1 and math.hypot(*r[_Q1X:_Q1Z + 1]) >= _Q1_THRESHOLD:
            candidate = rotate_q1(x, align_down_angle(r[_Q1Y], r[_Q1Z]))
            if candidate @ (leak * candidate) <= _LEAKAGE_THRESHOLD:
                samples[t] = x = candidate
                r = (x @ reads).tolist()
                stage = 2
                dfs_time = t if step > 0 else None
        if stage == 2 and _equator_purity(*r[_MX:_FID]) >= _PURITY_THRESHOLD:
            samples[t] = x = rotate_q2(x, azimuth_align_angle(r[_MX], r[_MY]))
            return package()
        if step == n_max:
            break
        fused, rotate, hold, a, b = stages[stage]
        y = x @ fused
        out = y[:16] + dws[step] * (y[16:32] - y[32] * x)
        r = (out @ reads).tolist()
        if not 0.0 < r[_TR] < math.inf:  # NaN fails too
            raise IntegrationError("trace lost during SME step")
        # the hold angles are scale-free, so they read the unnormalized out
        x = rotate(out / r[_TR], hold(r[a], r[b]))
        if x @ (gram * x) > 1.0 + 1e-12:
            x = to_coords(clip_psd(from_coords(x)))
        r = (x @ reads).tolist()
        if (step + 1) % sample_every == 0:
            samples[t + dt] = x
    raise ProtocolBudgetError(
        f"thresholds not reached within horizon {horizon:g} (stage {stage})",
        package(),
    )
