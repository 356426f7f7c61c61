"""Nonlinear qubit dynamics selected by measurement post-selection.

Running two copies of a state through a XOR gate and keeping the pair only
when the second register reads zero squares every density-matrix element.
Alternating this squaring map S with a fixed SU(2) rotation U gives the
iteration F = U o S, which on pure states reduces to a rational map of one
complex variable,

    F_p(z) = (z^2 + p) / (1 - conj(p) z^2),    p = tan(x) e^{i phi},

acting on the Riemann sphere.  The module provides both pictures plus the
tools hung off them: Bell-state purification by iteration, convergence-time
rasters whose slow set draws the Julia set of F_p, a box-counting dimension
estimate for its boundary, and Lyapunov exponents.  The orbit iteration for
Lyapunov work runs in arbitrary precision: a repelling orbit loses roughly
one bit per step, so float64 orbits fall off the Julia set after about
fifty steps no matter how accurately they start.  mpmath is imported only
by the Lyapunov estimator (``lyapunov_estimate`` and its helper
``_rescale``), so the rest of the module, and the CLI, load without it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .states import bell_state, check_density, density, fidelity_trace, partial_trace, tensor_product

INFINITY = complex(math.inf, 0.0)

# The iteration benchmark: a slightly perturbed, deliberately non-Hermitian
# Bell-state density matrix.  Only square_elements(raw=True) accepts it.
PERTURBED_BELL = np.array(
    [
        [0.17, 0.0, 0.0, 0.0],
        [0.0, 0.30, 0.29, 0.0],
        [0.0, 0.205, 0.22, 0.0],
        [0.0, 0.0, 0.0, 0.31],
    ],
    dtype=complex,
)


def is_infinity(z):
    """True for the point at infinity (any non-finite complex works)."""
    z = complex(z)
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


@dataclass(frozen=True)
class MapParams:
    """Parameter of the induced rational map."""

    p: complex

    @classmethod
    def from_rotation(cls, x, phi):
        """p = tan(x) e^{i phi} from the SU(2) rotation angles."""
        return cls(p=complex(math.tan(x) * np.exp(1j * phi)))


def su2_unitary(x, phi):
    """The rotation [[cos x, sin x e^{i phi}], [-sin x e^{-i phi}, cos x]]."""
    c, s = math.cos(x), math.sin(x)
    e = np.exp(1j * phi)
    return np.array([[c, s * e], [-s / e, c]], dtype=complex)


def square_elements(rho, raw=False):
    """Square every matrix element and renormalize.

    Returns (out, success_prob) with out_ij = rho_ij^2 / N and
    N = success_prob = sum_i rho_ii^2, the probability that the XOR
    post-selection below accepts.  The elementwise square of a Hermitian
    PSD matrix is again Hermitian PSD (Schur product with itself), so
    proper states map to proper states.  raw=True skips the Hermiticity
    and positivity checks for the PERTURBED_BELL benchmark.
    """
    rho = check_density(rho, raw=raw)
    squared = rho * rho
    norm = np.sum(np.diagonal(squared))
    if abs(norm) < 1e-15:
        raise ValueError("squared diagonal sums below 1e-15, squaring map degenerate")
    return squared / norm, float(norm.real)


def xor_postselect(rho):
    """Realize the squaring map by gate and measurement, literally.

    Takes two copies of the state, applies XOR12 |i>|j> = |i>|i xor j>
    (bitwise, so the dimension must be a power of two), projects the second
    register onto |0...0> and traces it out.  Agrees with square_elements
    including the success probability; the two are independent
    implementations of the same channel.
    """
    rho = check_density(rho)
    d = rho.shape[0]
    if d & (d - 1):
        raise ValueError(f"XOR register needs a power-of-two dimension, got {d}")
    pair = np.kron(rho, rho)
    xor = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            xor[i * d + (i ^ j), i * d + j] = 1.0
    pair = xor @ pair @ xor  # involution, so this is XOR . XOR^dag
    keep = np.zeros((d, d))
    keep[0, 0] = 1.0
    projected = np.kron(np.eye(d), keep)
    pair = projected @ pair @ projected
    success = np.trace(pair).real
    if abs(success) < 1e-15:
        raise ValueError("post-selection accepts with probability below 1e-15")
    return partial_trace(pair, (d, d), keep=0) / success, float(success)


def f_step(rho, x, phi, raw=False):
    """One squaring-then-rotation step, U (S rho) U^dag.

    Qubits get U(x, phi) directly; two-qubit states get U x U.  With
    x = pi/4, phi = pi/2 the symmetric and even Bell states form a stable
    2-cycle of this iteration.
    """
    squared, _ = square_elements(rho, raw=raw)
    u = su2_unitary(x, phi)
    if squared.shape[0] == 2:
        pass
    elif squared.shape[0] == 4:
        u = tensor_product(u, u)
    else:
        raise ValueError("f_step expects a one- or two-qubit state")
    return u @ squared @ u.conj().T


def bell_purify_iterate(rho0, n_steps, x=math.pi / 4, phi=math.pi / 2, raw=False):
    """Iterate f_step and track overlap with the symmetric Bell state.

    Returns the n_steps + 1 fidelities F_k = <psi+| rho_k |psi+> starting
    from F_0.  The input is validated once; the iterates themselves are fed
    back in raw mode so a deliberately asymmetric start (PERTURBED_BELL)
    stays asymmetric instead of being rejected mid-run.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    rho = check_density(rho0, raw=raw)
    target = density(bell_state("psi+"))
    fids = [fidelity_trace(target, rho)]
    for _ in range(n_steps):
        rho = f_step(rho, x, phi, raw=True)
        fids.append(fidelity_trace(target, rho))
    return np.array(fids)


def fp_map(z, p):
    """Evaluate F_p(z) = (z^2 + p)/(1 - conj(p) z^2) on the sphere.

    The point at infinity maps to -1/conj(p) (to infinity when p = 0), and
    a vanishing denominator yields infinity; no input raises.
    """
    p = complex(p)
    if is_infinity(z):
        return INFINITY if p == 0 else -1.0 / p.conjugate()
    z = complex(z)
    if abs(z) > 1e100:
        # z^2 would overflow; indistinguishable from infinity at this scale
        return INFINITY if p == 0 else -1.0 / p.conjugate()
    z2 = z * z
    den = 1.0 - p.conjugate() * z2
    if den == 0:
        return INFINITY
    return (z2 + p) / den


def fp_derivative_abs(z, p):
    """|F_p'(z)| = 2|z|(1 + |p|^2)/|1 - conj(p) z^2|^2, with inf at poles."""
    p = complex(p)
    if is_infinity(z):
        return 0.0 if p != 0 else math.inf
    z = complex(z)
    if abs(z) > 1e100:
        return 0.0 if p != 0 else math.inf
    den = abs(1.0 - p.conjugate() * z * z) ** 2
    num = 2.0 * abs(z) * (1.0 + abs(p) ** 2)
    if den == 0.0:
        return math.inf
    return num / den


def chordal_distance(a, b):
    """Riemann-sphere chordal distance, diameter 2, infinity regular."""
    ua, va = _to_uv(a)
    ub, vb = _to_uv(b)
    return 2.0 * abs(ua * vb - ub * va)


def _to_uv(z):
    # normalized homogeneous coordinates z = u/v
    if is_infinity(z):
        return 1.0 + 0.0j, 0.0j
    z = complex(z)
    r = math.hypot(abs(z), 1.0)
    return z / r, 1.0 / r


@dataclass(frozen=True)
class RasterJob:
    """Viewport and iteration budget for a convergence-time raster."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    width: int
    height: int
    max_iters: int
    cycle_tol: float = 1e-9
    params: MapParams = field(default_factory=lambda: MapParams(p=0.0))

    def __post_init__(self):
        if self.re_min >= self.re_max or self.im_min >= self.im_max:
            raise ValueError("raster window is empty")
        if self.width < 1 or self.height < 1:
            raise ValueError("raster needs at least one pixel")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.cycle_tol <= 0:
            raise ValueError("cycle_tol must be positive")

    def pixel_centers(self):
        """(re, im) center coordinates; row 0 is the top, im_max edge."""
        dre = (self.re_max - self.re_min) / self.width
        dim = (self.im_max - self.im_min) / self.height
        re = self.re_min + (np.arange(self.width) + 0.5) * dre
        im = self.im_max - (np.arange(self.height) + 0.5) * dim
        return re, im


@dataclass(frozen=True)
class RasterGrid:
    """Per-pixel first-arrival step counts.

    -1 marks a pixel that settles on no cycle of period up to 8 within the
    budget (see julia_raster).  When F_p has no attracting cycle of such a
    period, every pixel is -1.
    """

    counts: np.ndarray
    job: RasterJob


_TAIL = 10  # orbit points kept for the end-of-budget cycle test
_MAX_PERIOD = 8
# Least critical-orbit steps before its cycle is read off: enough to
# converge to double precision onto a cycle of multiplier up to about 0.99.
_CRITICAL_STEPS = 4096
# The critical orbits also run this many times the pixel budget: at a
# slowly attracting cycle they need about as many steps as the pixels to
# reach it, and its points must be settled to well within cycle_tol before
# a pixel's arrival on them can be counted.
_CRITICAL_BUDGETS = 4


def _step(u, v, p, pc):
    """One step of F_p on normalized homogeneous coordinates, z = u/v."""
    nu = u * u + p * (v * v)
    nv = v * v - pc * (u * u)
    norm = np.sqrt(np.abs(nu) ** 2 + np.abs(nv) ** 2)
    # a zero norm cannot occur for finite p: u^2 = -p v^2 and
    # v^2 = conj(p) u^2 together force u = v = 0
    return nu / norm, nv / norm


def _chord(au, av, bu, bv):
    """Chordal distance of normalized homogeneous points a and b."""
    return 2.0 * np.abs(au * bv - bu * av)


def _periods(tail_u, tail_v, tol):
    """Smallest period per orbit from its last points, 0 for none.

    tail_u, tail_v hold the last points of each orbit, oldest first.  A
    period-q cycle needs the two newest points to lie within tol of their
    q-back partners; the smallest q up to _MAX_PERIOD wins.
    """
    period = np.zeros(tail_u.shape[1:], dtype=np.int64)
    for q in range(1, min(_MAX_PERIOD, len(tail_u) - 2) + 1):
        hit = ((_chord(tail_u[-1], tail_v[-1], tail_u[-1 - q], tail_v[-1 - q]) < tol)
               & (_chord(tail_u[-2], tail_v[-2], tail_u[-2 - q], tail_v[-2 - q]) < tol))
        period[(period == 0) & hit] = q
    return period


def _orbit(u, v, p, steps):
    """The points of each orbit from its start to step `steps`, oldest first."""
    pc = np.conj(p)
    out_u = np.empty((steps + 1,) + u.shape, dtype=complex)
    out_v = np.empty_like(out_u)
    out_u[0], out_v[0] = u, v
    for k in range(1, steps + 1):
        u, v = _step(u, v, p, pc)
        out_u[k], out_v[k] = u, v
    return out_u, out_v


def _orbit_tail(u, v, p, steps):
    """The last _TAIL points (u, v) of one orbit of `steps` steps, oldest first.

    Plain complex scalars, with the arithmetic of _step.  An orbit that
    repeats a point exactly is periodic from there on, so it stops _TAIL
    steps later, once its last points are all on that cycle.
    """
    pc = p.conjugate()
    tail = [(u, v)]
    left = steps
    while left:
        left -= 1
        uu, vv = u * u, v * v
        nu, nv = uu + p * vv, vv - pc * uu
        norm = math.sqrt(abs(nu) ** 2 + abs(nv) ** 2)
        u, v = nu / norm, nv / norm
        if left > _TAIL and (u, v) in tail:
            left = _TAIL
        tail.append((u, v))
        if len(tail) > _TAIL:
            del tail[0]
    return tail


def _attracting_cycles(p, tol, steps=_CRITICAL_STEPS):
    """The attracting cycles of F_p with period up to _MAX_PERIOD.

    F_p is z^2 followed by a rotation, so its critical points are 0 and
    infinity, and every attracting cycle attracts one of them (Fatou;
    Milnor, Dynamics in One Complex Variable, section 8).  The critical
    orbits run `steps` steps and their cycles are read off with the tail
    test at tol.  A cycle is kept only if its multiplier, the product of
    the spherical derivatives at its points, is below 1: at p = i both
    orbits land exactly on the repelling fixed point 1.  Returns one (u, v)
    pair of point arrays per cycle; a cycle both critical points reach is
    listed once.
    """
    p = complex(p)
    tails = [_orbit_tail(0j, 1 + 0j, p, steps), _orbit_tail(1 + 0j, 0j, p, steps)]
    tail_u, tail_v = np.array(tails).transpose(2, 1, 0)  # coordinate, step, orbit
    cycles = []
    for orbit, q in enumerate(_periods(tail_u, tail_v, tol)):
        if q == 0:
            continue
        cu, cv = tail_u[-q:, orbit], tail_v[-q:, orbit]
        a, b = np.abs(cu) ** 2, np.abs(cv) ** 2
        if np.prod(2.0 * np.sqrt(a * b) * (a + b) / (a * a + b * b)) >= 1.0:
            continue
        if any((_chord(cu[-1], cv[-1], ou, ov) < tol).any() for ou, ov in cycles):
            continue
        cycles.append((cu, cv))
    return cycles


def _raster_rows(job, cycles, row_lo, row_hi):
    p = complex(job.params.p)
    pc = np.conj(p)
    tol = job.cycle_tol
    n = job.max_iters
    re, im = job.pixel_centers()
    z0 = re[np.newaxis, :] + 1j * im[row_lo:row_hi, np.newaxis]
    r = np.hypot(np.abs(z0), 1.0)
    u, v = (z0 / r).ravel(), (1.0 / r).ravel()
    counts = np.full(u.size, -1, dtype=np.int64)
    active = np.arange(u.size)
    cycle_u = np.concatenate([cu for cu, _ in cycles])
    cycle_v = np.concatenate([cv for _, cv in cycles])

    # steps up to n - _TAIL: a pixel within tol of an attracting cycle
    # point settles there and leaves the active set
    first_tail = max(0, n + 1 - _TAIL)
    for step in range(first_tail):
        near = np.zeros(active.size, dtype=bool)
        for a, b in zip(cycle_u, cycle_v):
            near |= _chord(u, v, a, b) < tol
        if near.any():
            counts[active[near]] = step
            keep = ~near
            active, u, v = active[keep], u[keep], v[keep]
            if not active.size:
                break
        u, v = _step(u, v, p, pc)

    # the last _TAIL steps: a pixel whose newest points pass the tail test
    # settles at its first step within tol of one period of them
    if active.size:
        tail_u, tail_v = _orbit(u, v, p, n - first_tail)
        period = _periods(tail_u, tail_v, tol)
        tail_counts = np.full(active.size, -1, dtype=np.int64)
        for k in range(len(tail_u)):
            near = np.zeros(active.size, dtype=bool)
            for m in range(period.max()):
                near |= (m < period) & (
                    _chord(tail_u[k], tail_v[k], tail_u[-1 - m], tail_v[-1 - m]) < tol)
            tail_counts[near & (tail_counts < 0)] = first_tail + k
        counts[active] = tail_counts
    return counts.reshape(row_hi - row_lo, job.width)


def julia_raster(job, threads=1):
    """Convergence-time raster of F_p over the job's viewport.

    The attracting cycles come first, from the two critical orbits run
    for four times max_iters steps, at least 4096 (see _attracting_cycles);
    with none, every pixel is -1 and nothing is iterated.  Pixels then iterate in projective sphere coordinates as a
    shrinking active set: a pixel within cycle_tol (chordal) of a cycle
    point at step s <= max_iters - 10 gets count s and stops.  Pixels still
    active run to max_iters and take the tail test instead: their two
    newest points must lie within cycle_tol of their q-back partners for
    some period q up to 8, and the count is the first of the last ten
    steps within cycle_tol of one period of those points; otherwise -1.
    Pixels are independent, so the raster is deterministic for any thread
    count.
    """
    threads = max(1, int(threads))
    cycles = _attracting_cycles(job.params.p, job.cycle_tol,
                                max(_CRITICAL_STEPS, _CRITICAL_BUDGETS * job.max_iters))
    if not cycles:
        return RasterGrid(counts=np.full((job.height, job.width), -1, dtype=np.int64),
                          job=job)
    if threads == 1 or job.height < 2 * threads:
        return RasterGrid(counts=_raster_rows(job, cycles, 0, job.height), job=job)
    bounds = np.linspace(0, job.height, threads + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(lambda b: _raster_rows(job, cycles, b[0], b[1]),
                              zip(bounds[:-1], bounds[1:])))
    return RasterGrid(counts=np.vstack(parts), job=job)


def boundary_mask(mask):
    """Cells of the set adjacent (4-neighborhood) to its complement."""
    mask = np.asarray(mask, dtype=bool)
    inner = np.ones_like(mask)
    inner[:-1] &= mask[1:]
    inner[1:] &= mask[:-1]
    inner[:, :-1] &= mask[:, 1:]
    inner[:, 1:] &= mask[:, :-1]
    return mask & ~(inner & mask)


def box_counts(mask, sizes):
    """Occupied-box counts of a mask at the given box edge lengths."""
    mask = np.asarray(mask, dtype=bool)
    out = []
    for s in sizes:
        h = (mask.shape[0] // s) * s
        w = (mask.shape[1] // s) * s
        if h == 0 or w == 0:
            raise ValueError(f"box size {s} exceeds the mask")
        pooled = mask[:h, :w].reshape(h // s, s, w // s, s).any(axis=(1, 3))
        out.append(int(pooled.sum()))
    return np.array(out)


def boundary_box_dimension(mask, sizes=(1, 2, 4, 8, 16, 32)):
    """Box-counting dimension estimate of a set's boundary.

    Fits log(count) against log(1/size) for the boundary cells of the mask.
    A smooth curve scores near 1, a space-filling boundary near 2.
    """
    edge = boundary_mask(mask)
    counts = box_counts(edge, sizes)
    if (counts == 0).any():
        raise ValueError("boundary is empty at some box size")
    slope, _ = np.polyfit(np.log(1.0 / np.asarray(sizes, float)), np.log(counts), 1)
    return float(slope)


@dataclass(frozen=True)
class LyapunovResult:
    """Chain-rule and shadow-trajectory Lyapunov estimates.

    terminated is True when the orbit fell into a supersink (a critical
    point of the map: 0 or infinity, where one step contracts by an
    unbounded factor) and the averages only cover the steps before that.
    """

    chain: float
    shadow: float
    n_used: int
    terminated: bool


# Bits for the logs, the chordal distances, the phase and the pull factor.
_LOG_PREC = 64


def _bits_below_one(x):
    """ceil(log2(1/x)), at least 0: the bits a size-x part of a size-1 value lacks."""
    return max(0, math.ceil(-math.log2(x)))


def _rescale(u, v):
    """Scale a homogeneous pair by an exact power of two, largest part ~1."""
    import mpmath

    s = mpmath.ldexp(1, -max(mpmath.mag(u), mpmath.mag(v)))
    return u * s, v * s


def _advance(u, v, pm, pc):
    """One step of F_p on homogeneous coordinates, z = u/v."""
    uu, vv = u * u, v * v
    return _rescale(uu + pm * vv, vv - pc * uu)


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def lyapunov_estimate(z0, p, n_iters, offset=1e-9, supersink_tol=1e-12):
    """Estimate the Lyapunov exponent of F_p at z0 two independent ways.

    The chain estimator averages log of the spherical derivative along the
    orbit; the shadow estimator follows a companion orbit started offset
    away, accumulating log of the chordal separation growth with
    per-step renormalization back to the fiducial orbit.  Orbits reaching
    within supersink_tol (chordal) of a critical point stop early with
    terminated=True.

    Both orbits run in arbitrary precision on a tapered schedule.  F_p is
    z^2 followed by a rotation of the sphere, so its spherical derivative
    never exceeds 2: an error made at step k grows at most 2^(j-k)-fold by
    step j.  Step k (counting from 0) therefore works at n_iters - k + g
    bits: its rounding error, about 2^-(n_iters - k + g), is still at most
    about 2^-g at the last step, and the errors of all steps add up to at
    most about n_iters * 2^-g.  The guard g is 64 bits, plus the bit length
    of n_iters for that sum, plus log2(1/offset) and log2(1/supersink_tol)
    rounded up: the separation of the two orbits, and a coordinate next to
    a critical point, are that much smaller than the state and so are
    known to that many fewer bits.  Every step thus sees the quantities it
    takes logs of to about 64 bits.  The logs, the chordal
    distances, the phase and the pull factor are taken at 64 bits.  The
    homogeneous pairs are rescaled by exact powers of two rather than
    normalized, and every quantity formed from them is invariant under
    that scaling.

    z0 and p may be complex numbers, mpmath values, strings, or
    zero-argument callables evaluated at the top working precision,
    n_iters + g bits.  The callable form matters for points on thin
    invariant sets: a double-rounded e^{0.7i} sits 1e-16 off the unit
    circle, and squaring doubles that error every step, so pass
    lambda: mpmath.exp(0.7j) instead.
    """
    import mpmath

    if n_iters < 1:
        raise ValueError("n_iters must be at least 1")
    if offset <= 0:
        raise ValueError("offset must be positive")
    if supersink_tol <= 0:
        raise ValueError("supersink_tol must be positive")
    n = int(n_iters)
    guard = (_LOG_PREC + n.bit_length()
             + _bits_below_one(offset) + _bits_below_one(supersink_tol))
    ctx = mpmath.mp
    with mpmath.workprec(n + guard):
        pm = mpmath.mpc(p() if callable(p) else p)
        pc = mpmath.conj(pm)

        zraw = z0() if callable(z0) else z0
        zm = None if (isinstance(zraw, complex) and is_infinity(zraw)) else mpmath.mpc(zraw)
        if zm is not None and (mpmath.isinf(zm.real) or mpmath.isinf(zm.imag)):
            zm = None
        if zm is None:
            fu, fv = mpmath.mpc(1), mpmath.mpc(0)
            gu, gv = _rescale(mpmath.mpc(1), mpmath.mpc(offset))
        else:
            fu, fv = _rescale(zm, mpmath.mpc(1))
            # companion start: offset in the chart that keeps it well scaled
            if abs(zm) <= 1.0:
                gu, gv = _rescale(zm + offset, mpmath.mpc(1))
            else:
                gu, gv = _rescale(mpmath.mpc(1), 1 / zm + offset)
        cross = fu * gv - gu * fv

        ctx.prec = _LOG_PREC
        fa, fb = _abs2(+fu), _abs2(+fv)
        d0 = 2 * abs(cross) / mpmath.sqrt((fa + fb) * (_abs2(+gu) + _abs2(+gv)))
        tol2 = mpmath.mpf(supersink_tol) ** 2 / 4
        floor = mpmath.mpf("1e-300")
        chain_sum = mpmath.mpf(0)
        shadow_sum = mpmath.mpf(0)
        n_used = 0
        terminated = False
        for k in range(n):
            # chordal distance to 0 or infinity, 2|u|/|(u, v)| or 2|v|/|(u, v)|,
            # below supersink_tol
            if fa < tol2 * (fa + fb) or fb < tol2 * (fa + fb):
                terminated = True
                break
            # spherical derivative of z^2, hence of F_p, at z = u/v
            fsharp = 2 * mpmath.sqrt(fa * fb) * (fa + fb) / (fa * fa + fb * fb)
            chain_sum += mpmath.log(max(fsharp, floor))

            ctx.prec = n - k + guard
            # round p down with the precision; the orbit pairs come out of
            # this step's arithmetic already rounded to it
            pm, pc = +pm, +pc
            fu, fv = _advance(fu, fv, pm, pc)
            gu, gv = _advance(gu, gv, pm, pc)
            cross = fu * gv - gu * fv  # cancels about log2(1/offset) bits

            ctx.prec = _LOG_PREC
            fu64, fv64, gu64, gv64 = +fu, +fv, +gu, +gv
            fa, fb = _abs2(fu64), _abs2(fv64)
            ratio = mpmath.sqrt((fa + fb) / (_abs2(gu64) + _abs2(gv64)))
            d = max(2 * abs(cross) / (fa + fb) * ratio, floor)
            shadow_sum += mpmath.log(d / d0)
            # pull the companion back to distance d0 along the phase-aligned
            # chord: g <- f (1 - pull) + g pull e^{-i arg<f, g>} |f|/|g|
            pull = d0 / d
            inner = mpmath.conj(fu64) * gu64 + mpmath.conj(fv64) * gv64
            scale = abs(inner)
            c = pull * ratio
            if scale > 0:
                c = c * mpmath.conj(inner) / scale

            ctx.prec = n - k + guard
            keep = 1 - pull
            gu, gv = _rescale(fu * keep + gu * c, fv * keep + gv * c)
            ctx.prec = _LOG_PREC
            n_used += 1

        if n_used == 0:
            return LyapunovResult(
                chain=math.nan, shadow=math.nan, n_used=0, terminated=terminated
            )
        return LyapunovResult(
            chain=float(chain_sum / n_used),
            shadow=float(shadow_sum / n_used),
            n_used=n_used,
            terminated=terminated,
        )
