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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sme import Channel, SmeModel, sme_step
from .states import HADAMARD, SI, SX, SY, SZ, check_density, tensor_product
from .stochastic import RngStream

I4 = np.eye(4, dtype=complex)
ZZ = tensor_product(SZ, SZ)
XX = tensor_product(SX, SX)
IX = tensor_product(SI, SX)
ZY = tensor_product(SZ, SY)
HH = tensor_product(HADAMARD, HADAMARD)

PLUS_PROJECTOR = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
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


@dataclass(frozen=True)
class DfsDecomposition:
    """Block weights and off-block coherence of a two-qubit state.

    leakage is the Frobenius weight of the off-block corners, zero exactly
    for block-diagonal states.  member names the block the state lives in,
    or None when it is not confined to either.
    """

    plus_block: np.ndarray
    minus_block: np.ndarray
    plus_weight: float
    minus_weight: float
    leakage: float
    member: str | None


@dataclass(frozen=True)
class EncodedQubits:
    """Bloch vectors of the which-block qubit and the dominant-block qubit."""

    q1: np.ndarray
    q2: np.ndarray
    dominant: str


@lru_cache
def parity_model(k):
    """Parity monitor with dephasing strength k, unit efficiency; cached per k."""
    if k <= 0:
        raise ValueError("k must be positive")
    return SmeModel(dim=4, channels=[Channel(op=ZZ, rate=2.0 * k, efficiency=1.0)])


@lru_cache
def toggled_parity_model(k):
    """The same monitor seen through local Hadamards on both qubits.

    Conjugation by H x H turns sigma_z x sigma_z into sigma_x x sigma_x, so
    running this model is identical to toggling the state with
    hadamard_toggle, running parity_model, and toggling back.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    return SmeModel(dim=4, channels=[Channel(op=XX, rate=2.0 * k, efficiency=1.0)])


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


def dfs_membership(rho, tol=1e-9):
    """Decompose a two-qubit state over the parity blocks.

    Membership requires essentially all weight in one block and off-block
    coherence below tol; block-diagonal but split states (I/4 for instance)
    belong to neither.
    """
    rho = np.asarray(rho, dtype=complex)
    wp = float((rho[0, 0] + rho[3, 3]).real)
    wm = float((rho[1, 1] + rho[2, 2]).real)
    leak = leakage_weight(rho)
    member = None
    if leak <= tol:
        if wp >= 1.0 - tol:
            member = "plus"
        elif wm >= 1.0 - tol:
            member = "minus"
    return DfsDecomposition(
        plus_block=PLUS_PROJECTOR.copy(),
        minus_block=MINUS_PROJECTOR.copy(),
        plus_weight=wp,
        minus_weight=wm,
        leakage=leak,
        member=member,
    )


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


def encoded_coords(rho):
    """Encoded-qubit Bloch vectors of a two-qubit state.

    q1 is the reduced which-block qubit; q2 is the conditional within-block
    qubit of the heavier block (ties go to minus, the block holding the
    protocol target).  A block with negligible weight yields q2 = 0.
    """
    rho = np.asarray(rho, dtype=complex)
    q1 = which_block_vector(rho)
    wp = float((rho[0, 0] + rho[3, 3]).real)
    wm = float((rho[1, 1] + rho[2, 2]).real)
    dominant = "minus" if wm >= wp else "plus"
    x, y, z, w = block_components(rho, dominant)
    if w < 1e-12:
        q2 = np.zeros(3)
    else:
        q2 = np.array([x, y, z]) / w
    return EncodedQubits(q1=q1, q2=q2, dominant=dominant)


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


def _q2_equator_purity(rho):
    x, y, _, w = block_components(rho, "minus")
    if w < 1e-12:
        return 0.5
    return 0.5 * (1.0 + (x * x + y * y) / (w * w))


def entangle_protocol(rho0, k, dt, horizon, seed, *, q1_threshold=0.999,
                      leakage_threshold=1e-3, purity_threshold=0.995,
                      sample_every=10):
    """Drive an arbitrary two-qubit state onto the symmetric Bell state.

    Stage one measures the parity while x-rotations of the second qubit
    hold the which-block qubit on its equator; once |q1| passes
    q1_threshold the vector is rotated onto the D- pole, accepted when the
    off-block leakage is at most leakage_threshold.  Stage two toggles the
    monitored operator to XX via local Hadamards (run here directly as the
    toggled model) and holds the D- qubit's x component at zero with
    opposite local z-rotations until its equatorial purity passes
    purity_threshold; a last phase rotation lands on (|01> + |10>)/sqrt(2).

    Thresholds are checked before stepping, so a state already at the
    target returns immediately, before any step.  Raises
    ProtocolBudgetError (carrying the partial trajectory) if the horizon
    runs out first.
    """
    if k <= 0:
        raise ValueError("k must be positive")
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
    stage1 = parity_model(k)
    stage2 = toggled_parity_model(k)
    n_max = int(round(horizon / dt))
    dws = RngStream(seed, 0).wiener(dt, n_max)

    times, r2s, leaks, q1zs, purities, fids = [], [], [], [], [], []

    def sample(t):
        if times and times[-1] == t:
            # a rotation at a sample time supersedes the row just written
            for seq in (times, r2s, leaks, q1zs, purities, fids):
                seq.pop()
        times.append(t)
        r2s.append(_r_squared(rho))
        leaks.append(leakage_weight(rho))
        q1zs.append(which_block_vector(rho)[2])
        purities.append(_q2_equator_purity(rho))
        fids.append(bell_fidelity(rho))

    def package():
        return ProtocolResult(
            times=np.array(times),
            r_squared=np.array(r2s),
            leakage=np.array(leaks),
            q1_z=np.array(q1zs),
            q2_purity=np.array(purities),
            bell_fidelity=np.array(fids),
            dfs_time=dfs_time,
            final_state=rho.copy(),
            final_fidelity=bell_fidelity(rho),
        )

    stage = 1
    dfs_time = None
    sample(0.0)
    for step in range(n_max + 1):
        t = step * dt
        if stage == 1:
            q1 = which_block_vector(rho)
            if float(np.linalg.norm(q1)) >= q1_threshold:
                beta = align_down_angle(q1[1], q1[2])
                u = q1_rotation(beta)
                candidate = u @ rho @ u.conj().T
                if leakage_weight(candidate) <= leakage_threshold:
                    rho = candidate
                    stage = 2
                    dfs_time = t if step > 0 else None
                    sample(t)
        if stage == 2:
            if _q2_equator_purity(rho) >= purity_threshold:
                x, y, _, _ = block_components(rho, "minus")
                u = q2_rotation(azimuth_align_angle(x, y))
                rho = u @ rho @ u.conj().T
                sample(t)
                return package()
        if step == n_max:
            break
        if stage == 1:
            rho = sme_step(stage1, rho, dt, dws[step])
            q1 = which_block_vector(rho)
            u = q1_rotation(equator_hold_angle(q1[1], q1[2]))
        else:
            rho = sme_step(stage2, rho, dt, dws[step])
            x, y, _, _ = block_components(rho, "minus")
            u = q2_rotation(phase_hold_angle(x, y))
        rho = u @ rho @ u.conj().T
        if float(np.vdot(rho, rho).real) > 1.0 + 1e-12:
            rho = clip_psd(rho)
        if (step + 1) % sample_every == 0:
            sample(t + dt)
    raise ProtocolBudgetError(
        f"thresholds not reached within horizon {horizon:g} (stage {stage})",
        package(),
    )
