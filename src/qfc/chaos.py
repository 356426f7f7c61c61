"""Nonlinear qubit dynamics selected by measurement post-selection.

Running two copies of a state through a XOR gate and keeping the pair only
when the second register reads zero squares every density-matrix element.
Alternating this squaring map S with a fixed SU(2) rotation U gives the
iteration F = U o S, which on pure states reduces to a rational map of one
complex variable,

    F_p(z) = (z^2 + p) / (1 - conj(p) z^2),    p = tan(x) e^{i phi},

acting on the Riemann sphere.  The module squares elementwise
(square_elements) and steps F_p on normalized homogeneous coordinates
(_step); the gate-and-projector circuit and F_p on points of the sphere are
the tests' references for both.  On top sit Bell-state purification by
iteration, convergence-time rasters whose slow set draws the Julia set of
F_p, a box-counting dimension estimate for its boundary, and Lyapunov
exponents.  The fiducial orbit of the Lyapunov work runs in arbitrary
precision, as Python-int fixed point: a repelling orbit loses roughly one
bit per step, so float64 orbits fall off the Julia set after about fifty
steps no matter how accurately they start.
mpmath is imported only by ``lyapunov_estimate``, to parse its start point
and parameter, so the rest of the module, and the CLI, load without it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .states import bell_state, check_density, density, fidelity_trace, tensor_product
from .stochastic import arg_problems, raise_problems

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


@dataclass(frozen=True)
class MapParams:
    """Parameter of the induced rational map."""

    p: complex

    @classmethod
    def from_rotation(cls, x, phi):
        """p = tan(x) e^{i phi} from the SU(2) rotation angles."""
        return cls(p=math.tan(x) * complex(math.cos(phi), math.sin(phi)))


def su2_unitary(x, phi):
    """The rotation [[cos x, sin x e^{i phi}], [-sin x e^{-i phi}, cos x]]."""
    c, s = math.cos(x), math.sin(x)
    e = np.exp(1j * phi)
    return np.array([[c, s * e], [-s / e, c]], dtype=complex)


def square_elements(rho, raw=False):
    """Square every matrix element and renormalize.

    Returns (out, success_prob) with out_ij = rho_ij^2 / N and
    N = success_prob = sum_i rho_ii^2, the probability that the XOR
    post-selection accepts.  The elementwise square of a Hermitian
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
    raise_problems(arg_problems(counts=[("n_steps", n_steps, 0)]))
    rho = check_density(rho0, raw=raw)
    target = density(bell_state("psi+"))
    fids = [fidelity_trace(target, rho)]
    for _ in range(n_steps):
        rho = f_step(rho, x, phi, raw=True)
        fids.append(fidelity_trace(target, rho))
    return np.array(fids)


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
        problems = arg_problems(counts=[("width", self.width, 1), ("height", self.height, 1),
                                        ("max_iters", self.max_iters, 1)])
        window = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(map(math.isfinite, window)):
            problems.append(f"raster window bounds must be finite, got {window!r}")
        elif self.re_min >= self.re_max or self.im_min >= self.im_max:
            problems.append(f"raster window is empty, got {window!r}")
        if not cmath.isfinite(self.params.p):
            problems.append(f"p must be finite, got {self.params.p!r}")
        raise_problems(problems + arg_problems([("cycle_tol", self.cycle_tol)]))

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
# Lead pixels per raster block, not counting the partners it carries: with
# them a block holds up to 16384 pixels, a size that iterates faster than
# whole rasters or blocks twice as large
_BLOCK_PIXELS = 8192


def _step(u, v, p, pc):
    """One step of F_p on normalized homogeneous coordinates, z = u/v.

    u and v are complex scalars (the critical orbits) or arrays of pixels.
    np.sqrt takes both and is correctly rounded, like math.sqrt; a Python
    float's ** 0.5 calls C pow, which is not.  numpy divides a complex
    array by a real one as (a + b 0i) (1 / c), so arrays are multiplied by
    the reciprocal norm: the same values, up to the sign of a zero part,
    which no test of the orbit reads.  A Python complex divides as a / c,
    so the critical orbits keep the quotient.
    """
    uu, vv = u * u, v * v
    nu, nv = uu + p * vv, vv - pc * uu
    norm = np.sqrt(abs(nu) ** 2 + abs(nv) ** 2)
    # a zero norm cannot occur for finite p: u^2 = -p v^2 and
    # v^2 = conj(p) u^2 together force u = v = 0
    if np.ndim(norm):
        norm = 1.0 / norm
        return np.multiply(nu, norm, out=nu), np.multiply(nv, norm, out=nv)
    return nu / norm, nv / norm


def _chord(au, av, bu, bv):
    """Chordal distance of normalized homogeneous points a and b."""
    return 2.0 * abs(au * bv - bu * av)


def _sphere_derivative(a, b):
    """Spherical derivative of F_p at z = u/v, from a = |u| and b = |v|.

    F_p is z^2 followed by a rotation of the sphere, so this is the
    derivative of z^2, 2|z|(1 + |z|^2)/(1 + |z|^4), written in |u| and |v|
    rather than their squares so that neither underflows.
    """
    return 2 * a * b * (a * a + b * b) / (a ** 4 + b ** 4)


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


def _orbit_tail(u, v, p, steps):
    """The last _TAIL points (u, v) of an orbit of `steps` steps, oldest first.

    An orbit that repeats a point exactly is periodic from there on, so it
    stops _TAIL steps later, once its last points are all on that cycle.
    That test needs complex scalars; u and v may be arrays of pixels when
    steps < _TAIL, which never reaches it.
    """
    pc = p.conjugate()
    tail = [(u, v)]
    left = steps
    while left:
        left -= 1
        u, v = _step(u, v, p, pc)
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
        if np.prod(_sphere_derivative(abs(cu), abs(cv))) >= 1.0:
            continue
        if any((_chord(cu[-1], cv[-1], ou, ov) < tol).any() for ou, ov in cycles):
            continue
        cycles.append((cu, cv))
    return cycles


def _raster_block(job, cycles, rows, lo, hi):
    """Flat indices and counts of the lead pixels [lo, hi) and their partners.

    At real p, `rows` given, the leads run row-major over the left
    ceil(W / 2) columns of those rows and pixel (j, i) partners its mirrored
    column (j, W - 1 - i); otherwise (rows None) the leads are the first
    ceil(N / 2) row-major pixels and pixel k partners its point reflection
    N - 1 - k.  A lead that is its own mirror has no partner.  A partner
    whose centre coordinates negate its lead's exactly (re alone at real p)
    has, up to the sign of zero parts, the conjugate first image at real p
    and the same one at complex p, and so on along the orbit; every test
    below reads only magnitudes, against cycle points that are real at real
    p.  Such a partner takes its own step-0 test and, unless either pixel
    settled then, leaves the active set and takes its lead's count.  At
    max_iters < 10 no step precedes the tail test, which reads the start
    points, so none shares.
    """
    p = complex(job.params.p)
    pc = np.conj(p)
    tol = job.cycle_tol
    n = job.max_iters
    w = job.width
    re, im = job.pixel_centers()
    flip = re == -re[::-1]  # column i mirrors column W - 1 - i
    idx = np.arange(lo, hi)
    if rows is None:
        k, mirror = idx, w * job.height - 1 - idx
        twin = flip[k % w] & (im == -im[::-1])[k // w]
    else:
        i = idx % ((w + 1) // 2)
        k = rows[idx // ((w + 1) // 2)] * w + i
        mirror, twin = k + w - 1 - 2 * i, flip[i]
    has = mirror > k
    pixels = np.concatenate([k, mirror[has]])
    lead, twin = np.flatnonzero(has), twin[has]  # partner t sits at k.size + t
    z0 = re[pixels % w] + 1j * im[pixels // w]
    r = np.hypot(np.abs(z0), 1.0)
    u, v = z0 / r, 1.0 / r
    counts = np.full(u.size, -1, dtype=np.int64)
    active = np.arange(u.size)
    shared = np.zeros(twin.size, dtype=bool)
    cycle_u = np.concatenate([cu for cu, _ in cycles])
    cycle_v = np.concatenate([cv for _, cv in cycles])

    def near_cycle(u, v):
        near = np.zeros(u.shape, dtype=bool)
        for a, b in zip(cycle_u, cycle_v):
            near |= _chord(u, v, a, b) < tol
        return near

    # steps up to n - _TAIL: a pixel within tol of an attracting cycle
    # point settles there and leaves the active set
    first_tail = max(0, n + 1 - _TAIL)
    for step in range(first_tail):
        near = near_cycle(u, v)
        counts[active[near]] = step
        if step == 0:
            # every pixel is still active and in place
            shared = twin & ~near[lead] & ~near[k.size:]
            near[k.size:] |= shared
        if near.any():
            keep = ~near
            active, u, v = active[keep], u[keep], v[keep]
            if not active.size:
                break
        u, v = _step(u, v, p, pc)

    # the last _TAIL steps: a pixel whose newest points pass the tail test
    # settles at its first step within tol of one period of them if the
    # newest is within tol of a cycle point, else at its first step within
    # tol of a cycle point (it arrived, then drifted just off the partner)
    if active.size:
        tail_u, tail_v = np.array(_orbit_tail(u, v, p, n - first_tail)).swapaxes(0, 1)
        period = _periods(tail_u, tail_v, tol)
        on_cycle = near_cycle(tail_u, tail_v) & (period > 0)
        own = np.zeros(tail_u.shape, dtype=bool)
        for m in range(period.max()):
            own |= (m < period) & (_chord(tail_u, tail_v, tail_u[-1 - m], tail_v[-1 - m]) < tol)
        near = np.where(on_cycle[-1], own, on_cycle)
        counts[active] = np.where(near.any(axis=0), first_tail + near.argmax(axis=0), -1)
    counts[k.size:][shared] = counts[lead[shared]]
    return pixels, counts


def julia_raster(job, threads=1):
    """Convergence-time raster of F_p over the job's viewport.

    The attracting cycles come first, from the two critical orbits run
    for four times max_iters steps, at least 4096 (see _attracting_cycles);
    with none, every pixel is -1 and nothing is iterated.  Pixels then
    iterate in projective sphere coordinates as a shrinking active set: a
    pixel within cycle_tol (chordal) of a cycle point at step
    s <= max_iters - 10 gets count s and stops.  Pixels still active run to
    max_iters and take the tail test instead: their two newest points must
    lie within cycle_tol of their q-back partners for some period q up to
    8.  If the newest is also within cycle_tol of a cycle point, the count
    is the first of the last ten steps within cycle_tol of one period of
    those points; otherwise it is the first of them within cycle_tol of a
    cycle point.  A pixel with neither reads -1.

    Pixels share orbits by symmetries read off the pixel axes (see
    _raster_block): at real p, F_p commutes with conjugation and its cycles
    are real, so a row whose centre is the exact negative of a row above
    copies that row's counts, and a pixel and its mirrored column iterate
    one orbit from step 1 on if their re centres negate exactly; at complex
    p, F_p(-z) = F_p(z), and a pixel and its point reflection do if both
    centres negate exactly.  On a centred window whose centres are
    symmetric to the bit ([-2, 2]^2 at a power-of-two size) that is one
    orbit per four pixels at real p, one per two otherwise.  The lead
    pixels are cut into blocks of _BLOCK_PIXELS, the last one ragged, each
    also carrying its pixels' partners, and run in turn on the calling
    thread; threads is accepted and ignored.
    """
    cycles = _attracting_cycles(job.params.p, job.cycle_tol,
                                max(_CRITICAL_STEPS, _CRITICAL_BUDGETS * job.max_iters))
    if not cycles:
        return RasterGrid(counts=np.full((job.height, job.width), -1, dtype=np.int64),
                          job=job)
    counts = np.empty((job.height, job.width), dtype=np.int64)
    rows = None
    if complex(job.params.p).imag == 0:
        im = job.pixel_centers()[1]
        j = np.arange(job.height)
        copied = (im == -im[::-1]) & (j > job.height - 1 - j)
        rows = np.flatnonzero(~copied)
    leads = (counts.size + 1) // 2 if rows is None else rows.size * ((job.width + 1) // 2)

    for lo in range(0, leads, _BLOCK_PIXELS):
        pixels, got = _raster_block(job, cycles, rows, lo, min(lo + _BLOCK_PIXELS, leads))
        counts.flat[pixels] = got
    if rows is not None:
        counts[copied] = counts[::-1][copied]
    return RasterGrid(counts=counts, job=job)


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


def boundary_box_dimension(mask):
    """Box-counting dimension estimate of a set's boundary.

    Fits log(count) against log(1/size) for the boundary cells of the mask,
    at box sizes 1, 2, 4, ..., 32.
    A smooth curve scores near 1, a space-filling boundary near 2.
    """
    sizes = (1, 2, 4, 8, 16, 32)
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


# Bits each step keeps in the quantities it takes logs of.
_LOG_PREC = 64
_FLOOR = 1e-300  # lower clamp of the derivative and the separation before their logs
_OFFSET = 1e-15  # lyapunov_estimate's companion offset, 1e-3 of _SUPERSINK_TOL
_SUPERSINK_TOL = 1e-12  # the chordal distance to a critical point that ends its orbits


def _scaled(pair, bits):
    """The int parts of a pair over 2**s, truncated, so that the largest has `bits` bits; and s."""
    s = max(map(int.bit_length, pair)) - bits
    return ([x >> s for x in pair] if s >= 0 else [x << -s for x in pair]), s


def _floats(pair, bits):
    """u and v of a pair at scale 2**bits, each part correctly rounded."""
    s = 1 << bits
    return complex(pair[0] / s, pair[1] / s), complex(pair[2] / s, pair[3] / s)


def lyapunov_estimate(z0, p, n_iters):
    """Estimate the Lyapunov exponent of F_p at z0 two independent ways.

    The chain estimator averages log of the spherical derivative along the
    orbit; the shadow estimator follows a companion orbit started 1e-15
    away, accumulating log of the chordal separation growth with
    per-step renormalization back to the fiducial orbit.  Orbits reaching
    within 1e-12 (chordal) of a critical point stop early with
    terminated=True.  The offset is 1e-3 of that tolerance: a companion
    farther off than the orbit's last approach to a supersink does not
    shadow it there, and the two estimates then part by up to 0.15.

    Only the fiducial orbit f runs in arbitrary precision, on a tapered
    schedule.  F_p is z^2 followed by a rotation of the sphere, so its
    spherical derivative never exceeds 2: an error made at step k grows at
    most 2^(j-k)-fold by step j.  Step k (counting from 0) therefore works
    at n_iters - k + g bits: its rounding error, about 2^-(n_iters - k + g),
    is still at most about 2^-g at the last step, and the errors of all
    steps add up to at most about n_iters * 2^-g.  The guard g is 64 bits,
    plus the bit length of n_iters for that sum, plus 40 = log2(1/1e-12)
    rounded up, as a coordinate next to a critical point is known to that
    many fewer bits, plus 50 = log2(1/1e-15) rounded up.  The shadow
    estimator does not need that last term, but it keeps f's bits, so
    chain, n_used and terminated equal bit for bit those of the tests'
    reference that runs the companion as a second exact orbit, whose cross
    product with f cancels that many bits.

    f is four Python ints (Re u, Im u, Re v, Im v) at scale 2^P, P the
    step's bits, shifted exactly so that its largest part has P bits; p is
    two ints at the top scale, shifted right by k at step k.  The companion
    is the complex-float separation (du, dv) from f in f's units, mapped by
    the exact difference F(f + delta) - F(f) and scaled by the shift that
    rescales f's image.  Each step pulls it back
    to d0, so its rounding errors do not grow and the shadow logs carry 53
    bits, and drops its part along f, which moves no point on the sphere
    but in floats would swamp the rest.  The logs are summed by math.fsum.

    z0 and p may be complex numbers, mpmath values, strings, or
    zero-argument callables evaluated at the top working precision,
    n_iters + g bits; a non-finite z0 is the point at infinity.  The
    callable form matters for points on thin invariant sets: a
    double-rounded e^{0.7i} sits 1e-16 off the unit circle, and squaring
    doubles that error every step, so pass lambda: mpmath.exp(0.7j)
    instead.  mpmath's global precision is neither read nor changed.  A
    bad n_iters (an integer, not a bool) or a non-finite p raises
    ValueError.
    """
    raise_problems(arg_problems(counts=[("n_iters", n_iters, 1)]))
    n = int(n_iters)
    top = n + _LOG_PREC + n.bit_length() + 50 + 40  # log2 of 1/_OFFSET, 1/_SUPERSINK_TOL
    one = 1 << top

    import mpmath

    with mpmath.workprec(top):
        pm = mpmath.mpc(p() if callable(p) else p)
        zm = mpmath.mpc(z0() if callable(z0) else z0)
        if not mpmath.isfinite(pm):
            raise ValueError(f"p must be finite, got {p!r}")
        pr, pi = (int(mpmath.ldexp(x, top)) for x in (pm.real, pm.imag))
        if not mpmath.isfinite(zm):
            f, inside = (one, 0, 0, 0), False
        else:
            zr, zi = (int(mpmath.ldexp(x, top)) for x in (zm.real, zm.imag))
            f, inside = (zr, zi, one, 0), abs(zm) <= 1
        pf, pc = complex(pm), complex(pm).conjugate()

    f, _ = _scaled(f, top)
    fu, fv = _floats(f, top)
    # companion start: offset in the chart that keeps it well scaled,
    # (z + offset, 1), or (1, 1/z + offset) as (z, 1 + offset z)
    du, dv = (_OFFSET * fv, 0j) if inside else (0j, _OFFSET * fu)
    supersink_tol = _SUPERSINK_TOL  # a local, as the loop reads it every step
    a, b = abs(fu), abs(fv)  # |u| and |v|, not their squares, so that neither underflows
    nf = math.hypot(a, b)
    d0 = 2 * abs(fu * dv - du * fv) / (nf * math.hypot(abs(fu + du), abs(fv + dv)))
    chain_logs, shadow_logs, terminated = [], [], False
    for k in range(n):
        # chordal distance to 0 or infinity, 2|u|/|(u, v)| or 2|v|/|(u, v)|,
        # below supersink_tol
        if 2 * min(a, b) < supersink_tol * nf:
            terminated = True
            break
        chain_logs.append(math.log(max(_sphere_derivative(a, b), _FLOOR)))
        bits = top - k
        # F(f + delta) - F(f), scaled as f's image is
        su, sv = (2 * fu + du) * du, (2 * fv + dv) * dv
        # F_p on f _scaled to `bits`, p = (qr + i qi) / 2**bits; the image _scaled again
        (ur, ui, vr, vi), _ = _scaled(f, bits)
        qr, qi = pr >> k, pi >> k
        uur, uui = ((ur + ui) * (ur - ui)) >> bits, (ur * ui) >> (bits - 1)
        vvr, vvi = ((vr + vi) * (vr - vi)) >> bits, (vr * vi) >> (bits - 1)
        f, shift = _scaled((uur + ((qr * vvr - qi * vvi) >> bits),
                            uui + ((qr * vvi + qi * vvr) >> bits),
                            vvr - ((qr * uur + qi * uui) >> bits),
                            vvi - ((qr * uui - qi * uur) >> bits)), bits)
        scale = 2.0 ** -shift
        du, dv = (su + pf * sv) * scale, (sv - pc * su) * scale
        fu, fv = _floats(f, bits)
        gu, gv = fu + du, fv + dv
        a, b = abs(fu), abs(fv)
        nf, ng = math.hypot(a, b), math.hypot(abs(gu), abs(gv))
        d = max(2 * abs(fu * dv - du * fv) / (nf * ng), _FLOOR)
        shadow_logs.append(math.log(d / d0))
        # pull the companion back to distance d0 along the phase-aligned chord,
        # less its part along f: delta <- c (delta - beta f), beta = <f, delta>/|f|^2
        pull = d0 / d
        inner = fu.conjugate() * gu + fv.conjugate() * gv
        c = pull * nf / ng * (inner.conjugate() / abs(inner) if inner else 1)
        beta = (fu.conjugate() * du + fv.conjugate() * dv) / (nf * nf)
        du, dv = c * (du - beta * fu), c * (dv - beta * fv)

    n_used = len(shadow_logs)
    return LyapunovResult(chain=math.fsum(chain_logs) / n_used if n_used else math.nan,
                          shadow=math.fsum(shadow_logs) / n_used if n_used else math.nan,
                          n_used=n_used, terminated=terminated)
