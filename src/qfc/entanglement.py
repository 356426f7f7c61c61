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

entangle_protocol holds the state as the real 4 x 4 coefficients r of
rho = 1/4 sum_ab r_ab S_a T_b, with S = (I,) + Q1_TRIPLE and T = (I,) +
Q2_TRIPLE.  A step is an exact Kraus filter of the monitor, which is quantum
non-demolition between kicks (Jacobs & Steck, Contemp. Phys. 47, 279
(2006)), then the hold rotation: stage one (ZZ = S_z, hold about S_x) moves
rows of r only, stage two (XX = T_x, hold about T_z) columns only.  The
loop writes the minimal hold angles inline and reads the sampled rows off
the coefficients (_reads).  Their density-matrix forms, with the block
triples and the Bell target they use, are the tests' oracles for both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# perfbench/tracer.py patches this module's sme_step, clip_psd and RngStream
from .sme import Channel, SmeModel, sme_step
from .states import SI, SX, SY, SZ, check_density, tensor_product
from .stochastic import (IntegrationError, RngStream, arg_problems, raise_problems,
                         step_count, step_problems, uint64_problems)

_HALF_PI = 0.5 * math.pi  # exact
I4 = np.eye(4, dtype=complex)
ZZ = tensor_product(SZ, SZ)
XX = tensor_product(SX, SX)
IX = tensor_product(SI, SX)
ZY = tensor_product(SZ, SY)

# Which-block qubit: (I x X, Z x Y, Z x Z) obey the Pauli algebra on the
# full space, and q1 below is the Bloch vector of the reduced which-block
# state.  Its x/y components are the inter-block coherences.
Q1_TRIPLE = (IX, ZY, ZZ)

# Within-block qubit: (X x X, Y x X, Z x I) is a second Pauli triple that
# commutes with the first, so C^4 = q1 x q2.  Its restriction to a block,
# T_b (I +- ZZ)/2, is that block's qubit and vanishes on the other block.
Q2_TRIPLE = (XX, tensor_product(SY, SX), tensor_product(SZ, SI))

# S_a T_b: Hermitian, with tr(S_a T_b S_c T_d) = 4 delta_ac delta_bd
_PRODUCTS = np.array([[s @ t for t in (I4,) + Q2_TRIPLE] for s in (I4,) + Q1_TRIPLE])


@lru_cache
def parity_model(k):
    """Parity monitor with dephasing strength k, unit efficiency; cached per k."""
    raise_problems(arg_problems([("k", k)]))
    return SmeModel(dim=4, channels=[Channel(op=ZZ, rate=2.0 * k, efficiency=1.0)])


def two_qubit_sme_step(rho, k, dt, dw):
    """One conditioned Euler step of the parity monitor.

    States supported on a single block are exact fixed points: both the
    deterministic and the stochastic part vanish identically there.
    """
    return sme_step(parity_model(k), rho, dt, [dw])


def bell_fidelity(rho):
    """Overlap with the symmetric Bell state (|01> + |10>)/sqrt(2)."""
    rho = np.asarray(rho, dtype=complex)
    return float(0.5 * (rho[1, 1] + rho[2, 2] + 2.0 * rho[1, 2].real).real)


def clip_psd(rho):
    """Project onto the physical set: clamp negative eigenvalues, renormalize.

    entangle_protocol no longer calls it: its filter step cannot leave the
    physical set.  The name stays because perfbench/tracer.py wraps it, and
    test_benchmark_tracer_names_resolve checks that every wrapped name exists.
    """
    rho = np.asarray(rho, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    vals = np.clip(vals, 0.0, None)
    total = vals.sum()
    if total <= 0:
        raise ValueError("state has no positive weight left")
    return (vecs * (vals / total)) @ vecs.conj().T


def align_down_angle(y, z):
    """X-rotation sending (y, z) to (0, -r): straight onto the D- pole."""
    return math.remainder(math.atan2(y, z) - math.pi, 2.0 * math.pi)


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
    # of the D- qubit, from the unnormalized (x, y, z, w) of _minus,
    # elementwise on arrays; the safe denominator keeps w = 0 free of warnings
    small = np.less(w, 1e-12)
    return np.where(small, 0.5, 0.5 * (1.0 + (x * x + y * y) / np.where(small, 1.0, w * w)))


def _coefficients(rho):
    """r_ab = tr(rho S_a T_b), flat: r[4a + b]."""
    return np.einsum("ij,abji->ab", rho, _PRODUCTS).real.ravel()


def _turn(r, pairs, beta):
    """Copy of r with each (i, j) of pairs turned by beta."""
    c, s = math.cos(beta), math.sin(beta)
    r = list(r)
    for i, j in pairs:
        r[i], r[j] = c * r[i] - s * r[j], s * r[i] + c * r[j]
    return r


def _minus(r):
    # the D- triple's unnormalized expectations and the block weight (x, y, z, w):
    # T_b (I - ZZ)/2 = T_b (S_0 - S_z)/2
    return [0.5 * (r[b] - r[12 + b]) for b in (1, 2, 3, 0)]


def _leakage(r):
    # the rows S_x, S_y are the off-block part
    return 0.25 * sum(v * v for v in r[4:12])


def _reads(r):
    """(R^2, leakage, q1_z, q2_purity, Bell fidelity) of coefficients r,
    one row of 16 or, elementwise with the same operations, a (16, n) array."""
    x, y, z, w = _minus(r)
    return (sum(v * v for v in r) - 1.0, _leakage(r), r[12], _equator_purity(x, y, z, w),
            0.5 * (x + w))


# pairs of r the stage switches turn: rows (y, z) by S_x, columns (x, y) by T_z
_ROWS_YZ = [(8 + b, 12 + b) for b in range(4)]
_COLS_XY = [(4 * a + 1, 4 * a + 2) for a in range(4)]
# stage thresholds: |q1| for the D- rotation, the leakage that accepts it,
# and the D- qubit's equatorial purity that ends stage two
_Q1_THRESHOLD, _LEAKAGE_THRESHOLD, _PURITY_THRESHOLD = 0.999, 1e-3, 0.995
_WIENER_BLOCK = 1024  # increments entangle_protocol draws at a time
# The largest k*dt accepted, 1e-3 up to a relative 1e-12 of rounding in k*dt.
# The filter is exact at any dt, but the feedback kicks once per step, so
# this bounds the motion between two kicks.
K_DT_LIMIT = 1e-3 * (1.0 + 1e-12)
# The most steps horizon / dt may ask for: at 1-2 us a step, a few minutes
MAX_PROTOCOL_STEPS = 10**8


def _increments(stream, dt, n):
    """The n Normal(0, dt) increments of stream, drawn _WIENER_BLOCK at a time."""
    return itertools.chain.from_iterable(stream.wiener(dt, min(_WIENER_BLOCK, n - lo)).tolist()
                                         for lo in range(0, n, _WIENER_BLOCK))


def protocol_problems(k, dt, horizon, sample_every):
    """entangle_protocol's problems with its numbers: the rates, k*dt above
    K_DT_LIMIT, horizon / dt above MAX_STEPS or else above
    MAX_PROTOCOL_STEPS, and sample_every."""
    k_bad, dt_bad, horizon_bad = (arg_problems([arg]) for arg in
                                  (("k", k), ("dt", dt), ("horizon", horizon)))
    problems = k_bad + dt_bad + horizon_bad
    if not (k_bad or dt_bad) and k * dt > K_DT_LIMIT:
        problems.append(f"k*dt must not exceed {K_DT_LIMIT:g}, got {k * dt!r}")
    if not (dt_bad or horizon_bad):
        problems += step_problems("horizon / dt", horizon, dt) or (
            [f"horizon / dt must round to at most {MAX_PROTOCOL_STEPS} steps, got"
             f" {horizon!r} / {dt!r}"] if horizon / dt > MAX_PROTOCOL_STEPS else [])
    return problems + arg_problems(counts=[("sample_every", sample_every, 1)])


def entangle_protocol(rho0, k, dt, horizon, seed, *, sample_every=10):
    """Drive an arbitrary two-qubit state onto the symmetric Bell state.

    Stage one measures the parity ZZ while x-rotations of the second qubit
    hold the which-block qubit on its equator; once |q1| passes 0.999 the
    vector is rotated onto the D- pole, accepted when the off-block leakage
    is at most 1e-3.  Stage two measures XX and holds the D- qubit's x
    component at zero with z-rotations of the first qubit until its
    equatorial purity passes 0.995; a last phase rotation lands on
    (|01> + |10>)/sqrt(2).

    Thresholds are checked before stepping, so a state already at the
    target returns immediately, before any step.  Raises
    ProtocolBudgetError (carrying the partial trajectory) if the horizon
    runs out first.

    A step with monitor c (ZZ, then XX) and rate Gamma = 2k is the Kraus
    filter rho -> M rho M / tr, M = exp(sqrt(Gamma) dY c), for the record
    dY = dW + 2 sqrt(Gamma) <c> dt, dW from RngStream(seed, 0) in blocks of
    _WIENER_BLOCK: a hyperbolic rotation by s = 2 sqrt(Gamma) dY of the
    monitored rows (0, z) or columns (0, x) of r, each entry divided by the
    filtered r_00 = tr as it is formed (r_00 itself becomes 1.0, which is
    tr / tr), the other entries divided by tr, then the hold turns rows
    (y, z) or columns (x, y).  Each stage is one loop of straight-line float
    code on the 16 r_ab.  A step always updates the entries that drive it
    or that the maximally mixed start makes live: r00, r20 and r30 in stage
    one, rows 0, 2 and 3 x columns 0-2 in stage two.  The rest ride in one
    block, skipped for the whole stage when every rider is zero as the
    stage begins.  No driver reads a rider, and a step keeps zeros at zero
    (tr > 0 and the hold's cosine is positive; only the sign of a -0.0 can
    change, which no read sees), so skipping moves no bit of the result.
    The sampled rows are read once, at the end, by one elementwise _reads
    over all of them.  It is exact at any dt; K_DT_LIMIT on k*dt bounds the
    time between kicks.  One ValueError names every bad argument: those of
    protocol_problems, a bad seed, and a rho0 that is not a two-qubit state.
    """
    problems = protocol_problems(k, dt, horizon, sample_every) + uint64_problems("seed", seed)
    try:
        rho = check_density(rho0)
    except ValueError as exc:
        problems.append(f"rho0: {exc}")
    else:
        if rho.shape != (4, 4):
            problems.append(f"rho0 must be a two-qubit state, got shape {rho.shape}")
    raise_problems(problems)
    root = 2.0 * math.sqrt(2.0 * k)  # 2 sqrt(Gamma)
    n_max = step_count(horizon, dt)
    draw = _increments(RngStream(seed, 0), dt, n_max).__next__
    cosh, sinh, cos, sin, atan2 = math.cosh, math.sinh, math.cos, math.sin, math.atan2
    hypot, inf, pi = math.hypot, math.inf, math.pi
    samples = {}  # t -> r; a rotation at a sample time supersedes the row

    def package():
        cols = _reads(np.array(list(samples.values())).T)
        final_state = np.einsum("ab,abij->ij", np.reshape(r, (4, 4)), _PRODUCTS) / 4.0
        return ProtocolResult(np.array(list(samples)), *cols, dfs_time=dfs_time,
                              final_state=final_state,
                              final_fidelity=bell_fidelity(final_state))

    step, stage, dfs_time, countdown = 0, 1, None, sample_every
    samples[0.0] = r = _coefficients(rho).tolist()
    (r00, r01, r02, r03, r10, r11, r12, r13, r20, r21, r22, r23, r30, r31, r32, r33) = r
    # stage one: monitor ZZ = S_z, hold q1 = (r10, r20, r30) on its equator;
    # r00, r20 and r30 drive the step, r10 and columns 1-3 ride
    ride = any((r01, r02, r03, r10, r11, r12, r13, r21, r22, r23, r31, r32, r33))
    while True:
        if hypot(r10, r20, r30) >= _Q1_THRESHOLD:
            r = [r00, r01, r02, r03, r10, r11, r12, r13, r20, r21, r22, r23, r30, r31, r32, r33]
            candidate = _turn(r, _ROWS_YZ, align_down_angle(r20, r30))
            if _leakage(candidate) <= _LEAKAGE_THRESHOLD:
                samples[step * dt] = r = candidate
                (r00, r01, r02, r03, r10, r11, r12, r13,
                 r20, r21, r22, r23, r30, r31, r32, r33) = r
                stage, dfs_time = 2, step * dt if step > 0 else None
                break
        if step == n_max:
            break
        s = root * (draw() + root * r30 * dt)
        ch, sh = cosh(s), sinh(s)
        tr = ch * r00 + sh * r30
        if not 0.0 < tr < inf:  # NaN fails too
            raise IntegrationError("trace lost in the measurement filter")
        r00, r30, r20 = 1.0, (sh * r00 + ch * r30) / tr, r20 / tr
        beta = (atan2(-r30, r20) + _HALF_PI) % pi - _HALF_PI  # minimal turn to z = 0
        c, s = cos(beta), sin(beta)
        r20, r30 = c * r20 - s * r30, s * r20 + c * r30
        if ride:
            r01, r31 = (ch * r01 + sh * r31) / tr, (sh * r01 + ch * r31) / tr
            r02, r32 = (ch * r02 + sh * r32) / tr, (sh * r02 + ch * r32) / tr
            r03, r33 = (ch * r03 + sh * r33) / tr, (sh * r03 + ch * r33) / tr
            r10, r11, r12, r13 = r10 / tr, r11 / tr, r12 / tr, r13 / tr
            r21, r22, r23 = r21 / tr, r22 / tr, r23 / tr
            r21, r31 = c * r21 - s * r31, s * r21 + c * r31
            r22, r32 = c * r22 - s * r32, s * r22 + c * r32
            r23, r33 = c * r23 - s * r33, s * r23 + c * r33
        step += 1
        countdown -= 1
        if not countdown:
            countdown = sample_every
            samples[step * dt] = [r00, r01, r02, r03, r10, r11, r12, r13,
                                  r20, r21, r22, r23, r30, r31, r32, r33]
    # stage two: monitor XX = T_x, hold the D- x at 0 (the angle reads 2x, 2y);
    # rows 0, 2 and 3 x columns 0-2 step, row 1 and column 3 ride
    ride = any((r03, r10, r11, r12, r13, r23, r33))
    while stage == 2:
        # the D- x, y and weight; a weight below 1e-12 reads purity 0.5
        x, y, w = 0.5 * (r01 - r31), 0.5 * (r02 - r32), 0.5 * (r00 - r30)
        if w >= 1e-12 and 0.5 * (1.0 + (x * x + y * y) / (w * w)) >= _PURITY_THRESHOLD:
            r = [r00, r01, r02, r03, r10, r11, r12, r13, r20, r21, r22, r23, r30, r31, r32, r33]
            samples[step * dt] = r = _turn(r, _COLS_XY, azimuth_align_angle(x, y))
            return package()
        if step == n_max:
            break
        s = root * (draw() + root * r01 * dt)
        ch, sh = cosh(s), sinh(s)
        tr = ch * r00 + sh * r01
        if not 0.0 < tr < inf:  # NaN fails too
            raise IntegrationError("trace lost in the measurement filter")
        r00, r01 = 1.0, (sh * r00 + ch * r01) / tr
        r20, r21 = (ch * r20 + sh * r21) / tr, (sh * r20 + ch * r21) / tr
        r30, r31 = (ch * r30 + sh * r31) / tr, (sh * r30 + ch * r31) / tr
        r02, r22, r32 = r02 / tr, r22 / tr, r32 / tr
        beta = (atan2(r01 - r31, r02 - r32) + _HALF_PI) % pi - _HALF_PI  # minimal turn to x = 0
        c, s = cos(beta), sin(beta)
        r01, r02 = c * r01 - s * r02, s * r01 + c * r02
        r21, r22 = c * r21 - s * r22, s * r21 + c * r22
        r31, r32 = c * r31 - s * r32, s * r31 + c * r32
        if ride:
            r10, r11 = (ch * r10 + sh * r11) / tr, (sh * r10 + ch * r11) / tr
            r03, r12, r13, r23, r33 = r03 / tr, r12 / tr, r13 / tr, r23 / tr, r33 / tr
            r11, r12 = c * r11 - s * r12, s * r11 + c * r12
        step += 1
        countdown -= 1
        if not countdown:
            countdown = sample_every
            samples[step * dt] = [r00, r01, r02, r03, r10, r11, r12, r13,
                                  r20, r21, r22, r23, r30, r31, r32, r33]
    r = [r00, r01, r02, r03, r10, r11, r12, r13, r20, r21, r22, r23, r30, r31, r32, r33]
    raise ProtocolBudgetError(
        f"thresholds not reached within horizon {horizon:g} (stage {stage})", package())
