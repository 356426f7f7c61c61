"""Tests for the measurement-induced nonlinear map and its chaos tools."""

import hashlib
import math
import threading

import mpmath
import numpy as np
import pytest

from conftest import partial_trace, random_density

import qfc.chaos as ch
import qfc.states as st

INFINITY = complex(math.inf, 0.0)


def is_infinity(z):
    """True for the point at infinity (any non-finite complex works)."""
    z = complex(z)
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


def _to_uv(z):
    """Normalized homogeneous coordinates (u, v) of z = u/v."""
    if is_infinity(z):
        return 1.0 + 0.0j, 0.0j
    z = complex(z)
    r = math.hypot(abs(z), 1.0)
    return z / r, 1.0 / r


def fp_map(z, p):
    """F_p(z) = (z^2 + p)/(1 - conj(p) z^2) on the sphere, through ch._step.

    The point at infinity maps to -1/conj(p) (to infinity when p = 0), and a
    vanishing denominator yields infinity; no input raises.
    """
    p = complex(p)
    u, v = ch._step(*_to_uv(z), p, p.conjugate())
    return u / v if v else INFINITY


def chordal_distance(a, b):
    """Riemann-sphere chordal distance, diameter 2, infinity regular."""
    return ch._chord(*_to_uv(a), *_to_uv(b))


def xor_postselect(rho):
    """The squaring map by gate and measurement, literally.

    Takes two copies of the state, applies XOR12 |i>|j> = |i>|i xor j>
    (bitwise, so the dimension must be a power of two), projects the second
    register onto |0...0> and traces it out: the gate-level reference for
    ch.square_elements, success probability included.
    """
    rho = st.check_density(rho)
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


def test_perturbed_bell_fixture():
    rho = ch.PERTURBED_BELL
    assert np.trace(rho).real == pytest.approx(1.0)
    assert not np.allclose(rho, rho.conj().T)
    st.check_density(rho, raw=True)
    with pytest.raises(ValueError):
        st.check_density(rho)
    with pytest.raises(ValueError):
        ch.square_elements(rho)


def test_square_elements_known_states():
    plus = st.density(np.array([1.0, 1.0]) / math.sqrt(2.0))
    out, prob = ch.square_elements(plus)
    assert np.allclose(out, plus)
    assert prob == pytest.approx(0.5)

    ket0 = st.density(np.array([1.0, 0.0]))
    out, prob = ch.square_elements(ket0)
    assert np.allclose(out, ket0)
    assert prob == pytest.approx(1.0)

    # squaring sharpens a biased mixture
    rho = np.diag([0.75, 0.25]).astype(complex)
    out, prob = ch.square_elements(rho)
    assert prob == pytest.approx(0.625)
    assert out[0, 0].real == pytest.approx(0.9)


def test_square_elements_degenerate_diagonal():
    # complex diagonal whose squares cancel; only raw mode gets this far
    rho = np.diag([0.5 + 0.5j, 0.5 - 0.5j])
    with pytest.raises(ValueError):
        ch.square_elements(rho, raw=True)


@pytest.mark.parametrize("dim", [2, 4])
def test_xor_postselect_matches_square_elements(dim):
    rho = random_density(np.random.default_rng(dim), dim)
    a, pa = ch.square_elements(rho)
    b, pb = xor_postselect(rho)
    assert np.max(np.abs(a - b)) <= 1e-13
    assert pa == pytest.approx(pb, rel=1e-12)


def test_xor_postselect_needs_power_of_two():
    rho = random_density(np.random.default_rng(3), 3)
    ch.square_elements(rho)  # elementwise form has no such restriction
    with pytest.raises(ValueError):
        xor_postselect(rho)


def test_su2_unitary_and_f_step_guard():
    u = ch.su2_unitary(0.3, 0.7)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
    assert np.linalg.det(u) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ch.f_step(random_density(np.random.default_rng(1), 3), 0.3, 0.7)


def test_map_params_from_rotation():
    p = ch.MapParams.from_rotation(math.pi / 4.0, math.pi / 2.0).p
    assert abs(p - 1j) < 1e-15
    p = ch.MapParams.from_rotation(0.3, 0.7).p
    assert p == pytest.approx(math.tan(0.3) * np.exp(0.7j))


def test_f_step_reduces_to_rational_map_on_pure_states():
    x, phi = 0.3, 0.7
    p = math.tan(x) * np.exp(1j * phi)
    z = 0.4 - 0.2j
    psi = np.array([z, 1.0]) / math.sqrt(1.0 + abs(z) ** 2)
    out = ch.f_step(st.density(psi), x, phi)
    zp = fp_map(z, p)
    psip = np.array([zp, 1.0]) / math.sqrt(1.0 + abs(zp) ** 2)
    assert np.allclose(out, st.density(psip), atol=1e-12)

    # the pole of the chart: |1> squares to itself, the rotation leaves
    # the ratio at F(infinity)
    out = ch.f_step(st.density(np.array([1.0, 0.0])), x, phi)
    z_inf = out[0, 1] / out[1, 1]
    assert abs(z_inf - fp_map(INFINITY, p)) < 1e-12


def test_bell_purify_iterate_frozen_values():
    fids = ch.bell_purify_iterate(ch.PERTURBED_BELL, 30, raw=True)
    assert len(fids) == 31
    assert abs(fids[0] - 0.5075) < 1e-12
    assert fids[1] == pytest.approx(0.23728170083523153, rel=1e-12)
    assert fids[2] == pytest.approx(0.5018255990003055, rel=1e-12)
    assert fids[20] == pytest.approx(0.9997452474452326, rel=1e-12)
    # the late iterates settle on the 2-cycle through the symmetric state
    assert all(fids[k] > 0.999 for k in range(24, 31, 2))
    assert all(fids[k] < 0.01 for k in range(25, 31, 2))


def test_bell_purify_iterate_guards():
    with pytest.raises(ValueError):
        ch.bell_purify_iterate(ch.PERTURBED_BELL, -1, raw=True)
    with pytest.raises(ValueError):
        ch.bell_purify_iterate(ch.PERTURBED_BELL, 2)


def test_fp_map_special_points():
    assert is_infinity(fp_map(INFINITY, 0.0))
    p = 1j
    assert fp_map(INFINITY, p) == pytest.approx(-1.0 / np.conj(p))
    assert fp_map(0.0, p) == pytest.approx(p)
    # a vanishing denominator sends the point to infinity
    assert is_infinity(fp_map(1.0, 1.0))
    # overflow guard: huge arguments behave like infinity
    assert fp_map(1e200, p) == fp_map(INFINITY, p)
    assert is_infinity(fp_map(1e200, 0.0))


def _pairs(zs):
    """Normalized homogeneous coordinates of the points zs, as two arrays."""
    return tuple(np.array(c) for c in zip(*(_to_uv(z) for z in zs)))


def test_step_and_chord_serve_scalars_and_arrays():
    # one definition serves the critical orbits (complex scalars) and the
    # raster (pixel arrays).  numpy's vectorised complex multiply, divide
    # and abs may round differently from Python's scalar ones, so the two
    # forms agree bit for bit only where the arithmetic is exact, as at the
    # critical points 0 and infinity, and to rounding elsewhere
    rng = np.random.default_rng(5)
    generic = list(rng.normal(size=40) + 1j * rng.normal(size=40))
    for p in (0j, 1 + 0j, 1j, -1 + 0j, 0.5j, 0.3 + 0.1j, -0.7 + 0.2j):
        pc = p.conjugate()
        for zs, tol in (([0.0, INFINITY], 0.0), (generic, 1e-15)):
            u, v = _pairs(zs)
            au, av = ch._step(u, v, p, pc)
            chords = ch._chord(au, av, u[::-1], v[::-1])
            for i in range(len(zs)):
                su, sv = ch._step(complex(u[i]), complex(v[i]), p, pc)
                assert type(su) is type(sv) is complex
                assert abs(su - au[i]) <= tol and abs(sv - av[i]) <= tol
                chord = ch._chord(su, sv, complex(u[-1 - i]), complex(v[-1 - i]))
                assert abs(chord - chords[i]) <= 2 * tol
    assert chordal_distance(0.0, INFINITY) == ch._chord(0j, 1 + 0j, 1 + 0j, 0j) == 2.0


@pytest.mark.parametrize("p", [1 + 0j, 1j, 0.3 + 0.1j])
def test_orbit_tail_of_pixel_array_matches_scalar_tails(p):
    # the raster's last _TAIL - 1 steps run _orbit_tail on arrays; for the
    # study parameters 1 and i the points 0, infinity, +-1 and +-i stay
    # exact, and a generic p agrees to rounding grown over the steps
    zs = [0.0, INFINITY, 1.0, -1.0, 1j, -1j, 0.4 - 0.2j, -1.3 + 0.5j]
    n_exact = 6 if p in (1, 1j) else 0
    u, v = _pairs(zs)
    steps = ch._TAIL - 1
    tail_u, tail_v = np.array(ch._orbit_tail(u, v, p, steps)).swapaxes(0, 1)
    assert tail_u.shape == (steps + 1, len(zs))
    for i in range(len(zs)):
        su, sv = np.array(ch._orbit_tail(complex(u[i]), complex(v[i]), p, steps)).T
        tol = 0.0 if i < n_exact else 1e-12
        assert np.abs(su - tail_u[:, i]).max() <= tol
        assert np.abs(sv - tail_v[:, i]).max() <= tol


def _quotient_step(u, v, p, pc):
    """ch._step with both coordinates divided by the norm, on arrays too."""
    uu, vv = u * u, v * v
    nu, nv = uu + p * vv, vv - pc * uu
    norm = np.sqrt(abs(nu) ** 2 + abs(nv) ** 2)
    return nu / norm, nv / norm


@pytest.mark.parametrize("p", [1 + 0j, 0.6544 + 0j, 0.3 + 0.2j, 1j])
def test_step_on_arrays_is_the_quotient_bit_for_bit(p, monkeypatch):
    # numpy divides a complex array by a real one as (a + b 0i) (1 / c), so
    # the reciprocal norm gives the quotient's bits; 20000 points, 30 steps
    pc = p.conjugate()
    rng = np.random.default_rng(30)
    z = rng.normal(size=20_000) + 1j * rng.normal(size=20_000)
    r = np.hypot(np.abs(z), 1.0)
    u = ru = z / r
    v = rv = (1.0 / r).astype(complex)
    for _ in range(30):
        u, v = ch._step(u, v, p, pc)
        ru, rv = _quotient_step(ru, rv, p, pc)
        for a, b in ((u, ru), (v, rv)):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    # on the axes a part is zero, whose sign alone may differ
    u, v = ru, rv = _pairs([0.0, INFINITY, 1.0, -1.0, 1j, -1j, 2.5, -0.5j])
    for _ in range(30):
        u, v = ch._step(u, v, p, pc)
        ru, rv = _quotient_step(ru, rv, p, pc)
        assert np.array_equal(u, ru) and np.array_equal(v, rv)
    # the critical orbits run on Python complex scalars, which keep the quotient
    def critical():
        tails = [ch._orbit_tail(0j, 1 + 0j, p, ch._CRITICAL_STEPS),
                 ch._orbit_tail(1 + 0j, 0j, p, ch._CRITICAL_STEPS)]
        cycles = ch._attracting_cycles(p, 1e-9)
        return (np.array(tails).view(np.uint64),
                [np.array(cycle).view(np.uint64) for cycle in cycles])

    tails, cycles = critical()
    monkeypatch.setattr(ch, "_step", _quotient_step)
    ref_tails, ref_cycles = critical()
    assert np.array_equal(tails, ref_tails)
    assert len(cycles) == len(ref_cycles)
    assert all(np.array_equal(a, b) for a, b in zip(cycles, ref_cycles))


def test_chordal_distance():
    assert chordal_distance(0.0, INFINITY) == pytest.approx(2.0)
    assert chordal_distance(0.3 + 1j, 0.3 + 1j) == 0.0
    assert chordal_distance(0.0, 1.0) == pytest.approx(math.sqrt(2.0))
    a, b = 0.7 - 0.1j, -1.3 + 0.4j
    assert chordal_distance(a, b) == pytest.approx(chordal_distance(b, a))
    expect = 2.0 * abs(a - b) / math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))
    assert chordal_distance(a, b) == pytest.approx(expect)
    assert chordal_distance(1e300, INFINITY) == pytest.approx(0.0, abs=1e-12)


def test_raster_job_guards_and_pixel_centers():
    kwargs = dict(re_min=-1.0, re_max=1.0, im_min=-1.0, im_max=1.0,
                  width=2, height=2, max_iters=8)
    job = ch.RasterJob(**kwargs)
    re, im = job.pixel_centers()
    assert np.allclose(re, [-0.5, 0.5])
    assert np.allclose(im, [0.5, -0.5])  # row 0 is the top edge

    with pytest.raises(ValueError):
        ch.RasterJob(**{**kwargs, "re_max": -1.0})
    with pytest.raises(ValueError):
        ch.RasterJob(**{**kwargs, "width": 0})
    with pytest.raises(ValueError):
        ch.RasterJob(**{**kwargs, "max_iters": 0})
    with pytest.raises(ValueError):
        ch.RasterJob(**{**kwargs, "cycle_tol": 0.0})
    ch.RasterJob(**{**kwargs, "width": np.int64(3)})  # numpy integers are integers


def test_raster_job_names_every_bad_field():
    # a fractional budget would never run out in _orbit_tail, a non-finite
    # bound would give all -1 with warnings, and cycle_tol = inf would settle
    # every pixel at step 0; one ValueError names each problem
    kwargs = dict(re_min=-1.0, re_max=1.0, im_min=-1.0, im_max=1.0,
                  width=2, height=2, max_iters=8)
    bad = {"width": True, "height": 2.0, "max_iters": 2.5, "im_max": math.nan,
           "cycle_tol": math.inf}
    with pytest.raises(ValueError) as err:
        ch.RasterJob(**{**kwargs, **bad})
    message = str(err.value)
    assert message.count(";") == 4
    for text in ("width must be an integer of at least 1, got True",
                 "height must be an integer of at least 1, got 2.0",
                 "max_iters must be an integer of at least 1, got 2.5",
                 "raster window bounds must be finite, got (-1.0, 1.0, -1.0, nan)",
                 "cycle_tol must be positive and finite, got inf"):
        assert text in message
    for field, value in (("re_min", -math.inf), ("cycle_tol", math.nan)):
        with pytest.raises(ValueError, match="finite"):
            ch.RasterJob(**{**kwargs, field: value})
    with pytest.raises(ValueError, match="raster window is empty"):
        ch.RasterJob(**{**kwargs, "im_min": 1.0})


def test_raster_unit_circle_classification():
    # p = 0 squares z outright: inside spirals to 0, outside to infinity,
    # and the unit circle itself never settles
    job = ch.RasterJob(re_min=-2.0, re_max=2.0, im_min=-2.0, im_max=2.0,
                       width=64, height=64, max_iters=12)
    grid = ch.julia_raster(job)
    assert grid.counts.shape == (64, 64)
    assert grid.counts.max() <= 12
    assert grid.counts.min() >= -1

    re, im = job.pixel_centers()
    radius = np.abs(re[np.newaxis, :] + 1j * im[:, np.newaxis])
    away = np.abs(radius - 1.0) >= 0.15
    near = np.abs(radius - 1.0) <= 0.02
    assert away.any() and near.any()
    assert np.all(grid.counts[away] >= 0)
    assert np.all(grid.counts[near] == -1)


def _raster_partition(job):
    """The lead pixel count and the copied-row mask of julia_raster's partition,
    derived here from the pixel axes: at real p a row whose centre is the exact
    negative of a row above it copies that row, and the leads are the left
    ceil(W / 2) columns of the other rows; at complex p they are the first
    ceil(N / 2) row-major pixels and no row is copied."""
    im = job.pixel_centers()[1]
    h = job.height
    if complex(job.params.p).imag != 0:
        return (job.width * h + 1) // 2, np.zeros(h, dtype=bool)
    j = np.arange(h)
    copied = (im == -im[::-1]) & (j > h - 1 - j)
    return int((~copied).sum()) * ((job.width + 1) // 2), copied


@pytest.mark.parametrize("width, height, block", [(100, 500, 6000), (20000, 3, 7000),
                                                  (15, 17, 37)])
def test_julia_raster_blocks_depend_only_on_the_grid(monkeypatch, width, height, block):
    # the lead pixels cut into blocks of _BLOCK_PIXELS, the last one ragged,
    # run in order on the calling thread at any thread count; the blocks and
    # the pixels each counts (its leads and their partners) depend on the
    # grid and on whether p is real, and together with the copied rows they
    # cover every pixel once; a row wider than the block spans blocks
    monkeypatch.setattr(ch, "_BLOCK_PIXELS", block)
    raster_block, calls = ch._raster_block, []

    def record(job, cycles, rows, lo, hi):
        pixels, counts = raster_block(job, cycles, rows, lo, hi)
        calls.append((lo, hi, tuple(pixels), threading.get_ident()))
        return pixels, counts

    monkeypatch.setattr(ch, "_raster_block", record)
    for pair in ((1.0, 0.6544), (0.3 + 0.2j, -1.0913 + 0.9491j)):
        partitions = []
        for p in pair:
            job = ch.RasterJob(re_min=-2.0, re_max=2.0, im_min=-2.0, im_max=2.0,
                               width=width, height=height, max_iters=24,
                               params=ch.MapParams(p=p))
            leads, copied = _raster_partition(job)
            blocks = [(lo, min(lo + block, leads)) for lo in range(0, leads, block)]
            assert len(blocks) >= 3
            expected = unshared_raster(job)
            for threads in (1, 3):
                calls.clear()
                assert np.array_equal(ch.julia_raster(job, threads=threads).counts, expected)
                assert [call[:2] for call in calls] == blocks
                assert {call[3] for call in calls} == {threading.get_ident()}
                partitions.append([call[2] for call in calls])
            covered = np.zeros((height, width), dtype=np.int64)
            np.add.at(covered.ravel(), np.concatenate(partitions[-1]), 1)
            covered[copied] += 1
            assert (covered == 1).all()
        assert all(blocks == partitions[0] for blocks in partitions)


def unshared_raster(job):
    """The raster with every pixel on its own orbit, over the whole grid as
    one block: the reference that orbits shared between reflections match."""
    p = complex(job.params.p)
    pc = np.conj(p)
    tol = job.cycle_tol
    n = job.max_iters
    cycles = ch._attracting_cycles(p, tol, max(ch._CRITICAL_STEPS, ch._CRITICAL_BUDGETS * n))
    if not cycles:
        return np.full((job.height, job.width), -1)
    re, im = job.pixel_centers()
    z0 = re[np.newaxis, :] + 1j * im[:, np.newaxis]
    r = np.hypot(np.abs(z0), 1.0)
    u, v = (z0 / r).ravel(), (1.0 / r).ravel()
    counts = np.full(u.size, -1, dtype=np.int64)
    active = np.arange(u.size)
    cycle_u = np.concatenate([cu for cu, _ in cycles])
    cycle_v = np.concatenate([cv for _, cv in cycles])

    def near_cycle(u, v):
        near = np.zeros(u.shape, dtype=bool)
        for a, b in zip(cycle_u, cycle_v):
            near |= ch._chord(u, v, a, b) < tol
        return near

    first_tail = max(0, n + 1 - ch._TAIL)
    for step in range(first_tail):
        near = near_cycle(u, v)
        if near.any():
            counts[active[near]] = step
            keep = ~near
            active, u, v = active[keep], u[keep], v[keep]
            if not active.size:
                break
        u, v = ch._step(u, v, p, pc)
    if active.size:
        tail_u, tail_v = np.array(ch._orbit_tail(u, v, p, n - first_tail)).swapaxes(0, 1)
        period = ch._periods(tail_u, tail_v, tol)
        on_cycle = near_cycle(tail_u, tail_v) & (period > 0)
        own = np.zeros(tail_u.shape, dtype=bool)
        for m in range(period.max()):
            own |= (m < period) & (ch._chord(tail_u, tail_v, tail_u[-1 - m], tail_v[-1 - m]) < tol)
        near = np.where(on_cycle[-1], own, on_cycle)
        counts[active] = np.where(near.any(axis=0), first_tail + near.argmax(axis=0), -1)
    return counts.reshape(job.height, job.width)


def _window(width, height, centred):
    # pixels 0.25 apart: the centres of a centred window are then exactly
    # symmetric, so every reflection has its pixel's first image
    dx, dy = (0.0, 0.0) if centred else (0.3, -0.2)
    return dict(re_min=dx - width / 8, re_max=dx + width / 8,
                im_min=dy - height / 8, im_max=dy + height / 8, width=width, height=height)


# real p, among them p = 0.1 with two attracting fixed points and a p whose
# imaginary part is -0.0, then complex p
_REAL_P = (1.0, 0.6544, -0.3, 0.1, complex(0.5, -0.0))
_SHARED_P = _REAL_P + (-1.0913 + 0.9491j, 0.2j)


def _assert_shared_orbits_match(window):
    # budgets below, at and above _TAIL move the last step before the tail
    # test across step 0
    for p in _SHARED_P:
        for max_iters in (1, 9, 10, 11, 400):
            job = ch.RasterJob(**window, max_iters=max_iters, params=ch.MapParams(p=p))
            assert np.array_equal(ch.julia_raster(job).counts, unshared_raster(job)), \
                (p, max_iters)


@pytest.mark.parametrize("block", [37, ch._BLOCK_PIXELS])
@pytest.mark.parametrize("centred", [True, False], ids=["centred", "off-centre"])
@pytest.mark.parametrize("width, height", [(16, 16), (15, 17), (17, 14), (1, 1)])
def test_shared_orbits_match_the_per_pixel_raster(monkeypatch, width, height, centred, block):
    # odd sizes put a middle row, a middle column and, at odd N, a centre
    # pixel that is its own reflection in play
    monkeypatch.setattr(ch, "_BLOCK_PIXELS", block)
    _assert_shared_orbits_match(_window(width, height, centred))


_SQUARE = dict(re_min=-2.0, re_max=2.0, im_min=-2.0, im_max=2.0)


@pytest.mark.parametrize("block", [37, ch._BLOCK_PIXELS])
@pytest.mark.parametrize("window", [
    dict(_SQUARE, width=15, height=17), dict(_SQUARE, width=64, height=63),
    dict(re_min=-2.0, re_max=2.0, im_min=-2.2, im_max=1.8, width=16, height=15),
    dict(re_min=-1.7, re_max=2.3, im_min=-2.0, im_max=2.0, width=15, height=16)],
    ids=["15x17", "64x63", "re-centred", "im-centred"])
def test_shared_orbits_match_the_per_pixel_raster_on_partly_symmetric_grids(
        monkeypatch, window, block):
    # over [-2, 2]^2 these pixel centres are symmetric to the bit only in
    # some rows and columns; the other two windows are centred on one axis
    monkeypatch.setattr(ch, "_BLOCK_PIXELS", block)
    re, im = ch.RasterJob(**window, max_iters=1).pixel_centers()
    assert any((axis == -axis[::-1]).any() for axis in (re, im))
    assert not all((axis == -axis[::-1]).all() for axis in (re, im))
    _assert_shared_orbits_match(window)


@pytest.mark.parametrize("p", _REAL_P, ids=repr)
def test_cycles_of_real_p_are_real(p):
    # the raster shares conjugate orbits at real p because its tests then
    # read only magnitudes against real cycle points
    cycles = ch._attracting_cycles(p, 1e-9)
    assert cycles
    for cu, cv in cycles:
        assert (cu.imag == 0).all() and (cv.imag == 0).all()


def _fixed_point_of_p_tenth():
    # the attracting fixed point of F_0.1 on the positive reals
    c = 0.0
    for _ in range(200):
        c = (c * c + 0.1) / (1 - 0.1 * c * c)
    return c


@pytest.mark.parametrize("max_iters", [1, 9, 10, 11, 400])
def test_reflection_of_a_pixel_settled_at_step_0_counts_its_own_arrival(max_iters):
    # 3x3 over [-1.5, 1.5]^2 at p = 1: z = -1, pixel (1, 0), lies on the
    # 2-cycle {-1, infinity} and its reflection z = 1 maps onto infinity.
    # They share a first image, but z = 1 arrives a step later.  At p = 0.1
    # the settled pixel is the reflection: z = c, pixel (0, 2) of a 3x1 row
    # over [-1.5c, 1.5c], is the attracting fixed point and -c maps onto it
    c = _fixed_point_of_p_tenth()
    for p, window, settled, twin in [
            (1.0, dict(re_min=-1.5, re_max=1.5, im_min=-1.5, im_max=1.5, width=3, height=3),
             (1, 0), (1, 2)),
            (0.1, dict(re_min=-1.5 * c, re_max=1.5 * c, im_min=-0.5, im_max=0.5,
                       width=3, height=1), (0, 2), (0, 0))]:
        job = ch.RasterJob(**window, max_iters=max_iters, params=ch.MapParams(p=p))
        counts = ch.julia_raster(job).counts
        assert np.array_equal(counts, unshared_raster(job)), p
        if max_iters >= ch._TAIL:
            assert (counts[settled], counts[twin]) == (0, 1), p


@pytest.mark.parametrize("centred", [True, False], ids=["centred", "off-centre"])
def test_centred_grid_iterates_one_orbit_per_reflected_pair(monkeypatch, centred):
    # neither p settles a pixel of this window within 12 steps, so every
    # orbit the blocks still run after step 1 reaches the tail test: one per
    # four pixels at real p, one per two at complex p on the centred window,
    # and one per pixel off-centre
    monkeypatch.setattr(ch, "_BLOCK_PIXELS", 100)
    orbit_tail, sizes = ch._orbit_tail, []

    def record(u, v, p, steps):
        if isinstance(u, np.ndarray):
            sizes.append(u.size)
        return orbit_tail(u, v, p, steps)

    monkeypatch.setattr(ch, "_orbit_tail", record)
    for p, share in ((0.6544, 4), (0.3 + 0.2j, 2)):
        job = ch.RasterJob(**_window(32, 16, centred), max_iters=12, params=ch.MapParams(p=p))
        expected = unshared_raster(job)
        sizes.clear()
        counts = ch.julia_raster(job).counts
        assert (counts == -1).all()
        assert np.array_equal(counts, expected)
        assert sum(sizes) == 512 // (share if centred else 1), p


def test_default_window_steps_one_orbit_per_four_pixels(monkeypatch):
    # the 256^2 raster at p = 1 over [-2, 2]^2, one block: no pixel settles
    # at step 0, and one orbit per class {z, -z, conj z, -conj z} steps on
    monkeypatch.setattr(ch, "_BLOCK_PIXELS", 1 << 20)
    step, sizes = ch._step, []

    def record(u, v, p, pc):
        if isinstance(u, np.ndarray):
            sizes.append(u.size)
        return step(u, v, p, pc)

    monkeypatch.setattr(ch, "_step", record)
    ch.julia_raster(ch.RasterJob(re_min=-2.0, re_max=2.0, im_min=-2.0, im_max=2.0,
                                 width=256, height=256, max_iters=400,
                                 params=ch.MapParams(p=1.0)))
    assert sizes[0] == 256 * 256 // 4


def _raster_counts(p, size, max_iters):
    job = ch.RasterJob(re_min=-2.0, re_max=2.0, im_min=-2.0, im_max=2.0,
                       width=size, height=size, max_iters=max_iters,
                       params=ch.MapParams(p=p))
    return ch.julia_raster(job).counts


def _counts_sha256(counts):
    return hashlib.sha256(np.ascontiguousarray(counts, dtype="<i8").tobytes()).hexdigest()


# 128x128 rasters over [-2, 2]^2, frozen from the earlier two-pass raster,
# which replayed every orbit against its own final points:
# p -> {max_iters: (sha256 of the int64 counts, settled pixels, count sum)}.
# p = 0.6544 has an attracting fixed point of multiplier 0.970.
_ALL_UNSETTLED = ("b5a41c3758763bbec72769fab4a2533bf2db0b6312d93d25a695f9e4b9e02260", 0, 0)
FROZEN_RASTERS = {
    0: {12: ("07d68cc3f9a1f855aac4d59d92645cf73b6ac591c2de1238ef120af8681da585", 16108, 98832),
        32: ("6b855683512a1afb766662649b106122f68146ccfe1304548582719cf1b6a552", 16384, 102128),
        400: ("6b855683512a1afb766662649b106122f68146ccfe1304548582719cf1b6a552", 16384, 102128)},
    1: {12: ("416acaf5ea8a7cfdc21f19f58f3fdaa0353f05dbf88307eded90c7435a80ebbd", 532, 4364),
        32: ("617a312cad04ba6cd24890e0236cf04727cd81d6bdd07ef3a678d6b6315402f0", 15560, 257984),
        400: ("4af56425773c91889615bf54341fa07e4f71914b6896220cbf77af561648cb80", 16384, 286264)},
    1j: {12: _ALL_UNSETTLED, 32: _ALL_UNSETTLED, 400: _ALL_UNSETTLED},
    0.3 + 0.2j: {
        12: _ALL_UNSETTLED, 32: _ALL_UNSETTLED,
        400: ("d2296873027b2bea304e8c1679f6485cf19647a9f35ab50978a6d0a7d2e6a821", 16384, 1251358)},
    0.5: {12: _ALL_UNSETTLED, 32: _ALL_UNSETTLED,
          400: ("2b8d60ff67766420b33cf5beadb27713e0e31d1462c55a0143dcd66b629284e0", 16384, 1393648)},
    0.2j: {12: _ALL_UNSETTLED,
           32: ("c04caa040675bb649662bab191578c36d58910f0c03cb02963c480eb632e2639", 16290, 385198),
           400: ("596866f93f6bc148237e6fa50a7f63676273dd7175f3e162a10ff944b2fe9646", 16384, 388264)},
    0.9: {12: _ALL_UNSETTLED,
          32: ("434911365ef3ba8c19496e8d4f8de71b52b5ffe3ec39262b0af77bf5e625085b", 1208, 33284),
          400: ("e7c10c315b9c4b6dee3ae3ed78cad22e5ba5086749a58b7925c85104e624bd8d", 16384, 583556)},
    -0.3: {12: _ALL_UNSETTLED,
           32: ("23b34b434ba19c1d660b031d7c8323284c59476549df3a40b71de976f6982348", 656, 19148),
           400: ("924dab2fc0c9a356938c1c8e9da270d45d8bf978ca04dcf5a1d2e03da7cf5d65", 16384, 655476)},
    0.6544: {12: _ALL_UNSETTLED, 32: _ALL_UNSETTLED, 400: _ALL_UNSETTLED},
}


@pytest.mark.parametrize("p", list(FROZEN_RASTERS), ids=str)
def test_julia_raster_matches_frozen_two_pass_counts(p):
    for max_iters, (sha, settled, total) in FROZEN_RASTERS[p].items():
        counts = _raster_counts(p, 128, max_iters)
        got = (_counts_sha256(counts), int((counts >= 0).sum()), int(counts[counts >= 0].sum()))
        assert got == (sha, settled, total), max_iters


# Pixels that reach an attracting cycle late in the budget.  The two-pass
# raster compared an orbit with its own final points, which then still sat
# off the cycle by about cycle_tol * |multiplier|^(steps left);
# the critical orbit's cycle points are on it.  So a pixel whose distance
# at arrival lies within that offset of cycle_tol moves by a step (by a
# period for a 2-cycle), either way.  (p, size, max_iters): sha256 of the
# two-pass counts, {(row, col): (two-pass count, count now)}.  At n = 49
# the moved pixels were within cycle_tol of their own final points at step
# 39 = n - 10, the last step the active set checks, but reach the cycle only
# at step 40, where the tail test takes over.  At p = 0.732+0.1334i,
# (27, 41) and (36, 22) come within 9.1e-10 of the cycle point
# -1.2896-0.3886i at step 395, but at step 400 lie 1.19e-9 from its
# partner -3.3564+2.7012i, so they count at their arrival on the cycle.
LATE_ARRIVALS = {
    "p=-0.3,n=49": ((-0.3, 128, 49),
                    "b5dda3977ef6ed68f65da244c559b938bd04ea794261639f671d507188cb642f",
                    {(11, 32): (39, 40), (11, 95): (39, 40),
                     (116, 32): (39, 40), (116, 95): (39, 40)}),
    "p=-0.3,n=60": ((-0.3, 128, 60),
                    "c6b4bd0f1951e55d557bf53c2334abafecfd96c4e95253cfed421d6a7f22e9df",
                    {(6, 5): (50, 49), (6, 122): (50, 49),
                     (121, 5): (50, 49), (121, 122): (50, 49)}),
    "p=0.3+0.2i,n=60": ((0.3 + 0.2j, 128, 60),
                        "c28530b0eb0299d82332dfa9f7724aeb283f491bf8bd7dc511a4fe5e4a5c99d2",
                        {(58, 43): (48, 49), (69, 84): (48, 49)}),
    "2-cycle,p=0.732+0.1334i,n=400": (
        (0.732 + 0.1334j, 64, 400),
        "47367eda0d639e4952ee824dbfa10c2ba4744030b327a72b4a681c50bf6d1e91",
        {(10, 0): (376, 378), (10, 21): (326, 328),
         (53, 42): (326, 328), (53, 63): (376, 378),
         (27, 41): (395, 395), (36, 22): (395, 395)}),
    "near-parabolic,p=0.6544,n=1000": (
        (0.6544, 64, 1000),
        "5c141ec5fb26d752d4829c584dd606962cc8ec41c6b40721f7af553bf03d11c2",
        {(10, 9): (638, 637), (10, 54): (638, 637), (53, 9): (638, 637),
         (53, 54): (638, 637), (16, 24): (642, 643), (16, 39): (642, 643),
         (47, 24): (642, 643), (47, 39): (642, 643)}),
    # Multiplier 0.997: floating-point F_p fixes points up to about 2e-13
    # from the true fixed point.  The critical orbit stops on one 1.8e-13
    # off it, the pixels' own final points are about 2e-14 off, so pixels
    # whose distance at arrival lies within 6e-14 of cycle_tol move a step.
    "near-parabolic,p=0.678529,n=10000": (
        (0.678529, 16, 10000),
        "67bc5e08435c2c11e602939ffe7613bcd03fb07f47f8b5b50b9d9804e216aff9",
        {(2, 5): (6064, 6065), (2, 10): (6064, 6065), (13, 5): (6064, 6065),
         (13, 10): (6064, 6065), (5, 4): (6054, 6055), (5, 11): (6054, 6055),
         (10, 4): (6054, 6055), (10, 11): (6054, 6055), (7, 2): (6051, 6052),
         (7, 13): (6051, 6052), (8, 2): (6051, 6052), (8, 13): (6051, 6052)}),
}


@pytest.mark.parametrize("case", list(LATE_ARRIVALS))
def test_julia_raster_late_arrivals_count_against_the_true_cycle(case):
    (p, size, max_iters), sha, moved = LATE_ARRIVALS[case]
    counts = _raster_counts(p, size, max_iters)
    for (row, col), (before, now) in moved.items():
        assert counts[row, col] == now, (row, col)
        counts[row, col] = before
    assert _counts_sha256(counts) == sha


def test_julia_raster_slow_cycle_matches_frozen_two_pass_counts():
    # multiplier 0.996: pixels arrive at steps 4323-4598, so the critical
    # orbits must run well past 4096 steps to reach the cycle.  The two-pass
    # raster gave these counts at max_iters 10 000, and at 6000 moved 124
    # pixels by a step against their own final points; arrivals on the
    # cycle do not depend on the budget.
    for max_iters in (6000, 10000):
        counts = _raster_counts(0.677623, 16, max_iters)
        assert _counts_sha256(counts) == (
            "ee586a8630b8eba3339e7f46c37d2abfdfa91fde13a348eb6e14a274099044af"), max_iters


# Pixels still off a slowly attracting cycle at step n - 10 whose last
# points pass the q-back test.  The two-pass raster counted them at their
# first step within cycle_tol of their own final points, which had not
# reached the cycle either.  They now settle only if some tail point is
# within cycle_tol of a cycle point.  If the newest is, they count at their
# first step within cycle_tol of one period of their last points, else at
# their first step within cycle_tol of a cycle point; the rest are -1.
# (p, size, max_iters): (sha256 of the counts, settled pixels, count sum).
SLOW_TAILS = {
    # 2-cycle of multiplier 0.916: 8 pixels arrive by step 390 and 6 settle
    # at 391.  6 more come within cycle_tol of one cycle point at step 393
    # or 399 but are off its partner at 400; they settle at 393 or 399.
    # The other 104 end 1.1e-9 to 3.3e-9 off the cycle and first come
    # within cycle_tol of it at steps 401-417.  (Two-pass: 124 settled, sum
    # 47906; the q-back test alone: 124, sum 48420.)
    "2-cycle,p=-1.0913+0.9491i,n=400": (
        (-1.0913 + 0.9491j, 64, 400),
        ("b6ae0f10a015df0524641835fab9c148c6f73f1ef0c2b2fcfd78541333c8291b", 20, 7778)),
    # fixed point of multiplier 0.996, reached only at steps 4323-4598: at
    # step 4000 every pixel is 3.6e-9 to 1.1e-8 off it, so none settles
    # (two-pass: 256 settled, sum 1017900; the q-back test alone: every
    # pixel 3991 = n - 9)
    "near-parabolic,p=0.677623,n=4000": (
        (0.677623, 16, 4000),
        ("d0ff1b294b5288d1ae1421eadf5b2d38a8752b76d472ff30bed9028e25b1c5b8", 0, 0)),
}


@pytest.mark.parametrize("case", list(SLOW_TAILS))
def test_julia_raster_slow_arrivals_count_on_the_cycle_or_in_the_tail(case):
    (p, size, max_iters), frozen = SLOW_TAILS[case]
    counts = _raster_counts(p, size, max_iters)
    got = (_counts_sha256(counts), int((counts >= 0).sum()), int(counts[counts >= 0].sum()))
    assert got == frozen


# Tail pixels whose newest point is off the cycle but that arrived on it
# inside the tail window: (p, size, max_iters) -> {(row, col): count}.
ARRIVED_OFF_THE_NEWEST_POINT = {
    (0.732 + 0.1334j, 64, 400): {(27, 41): 395, (36, 22): 395},
    (-1.0913 + 0.9491j, 64, 400): {(9, 42): 393, (9, 43): 399, (13, 32): 399,
                                   (50, 31): 399, (54, 20): 399, (54, 21): 393},
}


@pytest.mark.parametrize("case", list(ARRIVED_OFF_THE_NEWEST_POINT), ids=str)
def test_julia_raster_tail_counts_arrival_off_the_newest_point(case):
    p, size, max_iters = case
    counts = _raster_counts(p, size, max_iters)
    job = ch.RasterJob(re_min=-2.0, re_max=2.0, im_min=-2.0, im_max=2.0,
                       width=size, height=size, max_iters=max_iters,
                       params=ch.MapParams(p=p))
    cycle_u, cycle_v = np.concatenate(ch._attracting_cycles(
        p, job.cycle_tol, max(4096, 4 * max_iters)), axis=1)
    re, im = job.pixel_centers()
    for (row, col), count in ARRIVED_OFF_THE_NEWEST_POINT[case].items():
        assert counts[row, col] == count, (row, col)
        # the oracle: iterate the pixel alone, as the raster does on arrays
        # (complex scalars round differently), and log its distance from
        # the cycle at every step
        z0 = np.array([complex(re[col], im[row])])
        r = np.hypot(np.abs(z0), 1.0)
        u, v = z0 / r, 1.0 / r
        dist = []
        for _ in range(max_iters + 1):
            dist.append(ch._chord(u, v, cycle_u, cycle_v).min())
            u, v = ch._step(u, v, complex(p), np.conj(complex(p)))
        assert dist[count] < job.cycle_tol <= min(dist[:count])
        assert dist[max_iters] >= job.cycle_tol


def _sphere_points(cycle):
    cu, cv = cycle
    return [INFINITY if v == 0 else complex(u / v) for u, v in zip(cu, cv)]


def test_attracting_cycles_from_critical_orbits():
    def has(zs, w):
        return min(chordal_distance(z, w) for z in zs) < 1e-12

    (two_cycle,) = ch._attracting_cycles(1.0, 1e-9)  # both critical orbits
    zs = _sphere_points(two_cycle)
    assert len(zs) == 2 and has(zs, -1.0) and has(zs, INFINITY)

    fixed = ch._attracting_cycles(0.0, 1e-9)  # z^2 fixes 0 and infinity
    zs = [z for cycle in fixed for z in _sphere_points(cycle)]
    assert len(fixed) == 2 and len(zs) == 2
    assert has(zs, 0.0) and has(zs, INFINITY)

    # p = i: 0 -> i -> -1 -> 1 and infinity -> -i -> -1 -> 1 land exactly on
    # the fixed point 1 in floating point, but its multiplier is 2
    assert ch._attracting_cycles(1j, 1e-9) == []
    # the two-pass raster gave the center pixel, z = 0, count 3 for landing
    # there; a repelling point is not convergence, so no pixel settles
    for max_iters in (12, 400):
        job = ch.RasterJob(re_min=-2.0, re_max=2.0, im_min=-2.0, im_max=2.0,
                           width=3, height=3, max_iters=max_iters,
                           params=ch.MapParams(p=1j))
        assert np.array_equal(ch.julia_raster(job).counts, np.full((3, 3), -1))


def test_boundary_mask_and_box_counts():
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:4, 1:4] = True
    edge = ch.boundary_mask(mask)
    assert edge.sum() == 8
    assert not edge[2, 2]
    assert np.array_equal(ch.box_counts(edge, (1, 2, 5)), [8, 4, 1])
    with pytest.raises(ValueError):
        ch.box_counts(edge, (6,))

    single = np.zeros((5, 5), dtype=bool)
    single[2, 2] = True
    assert np.array_equal(ch.boundary_mask(single), single)

    # a full grid has no complement to touch
    assert not ch.boundary_mask(np.ones((4, 4), dtype=bool)).any()


def test_boundary_box_dimension_of_disk():
    n = 128
    yy, xx = np.mgrid[0:n, 0:n]
    disk = (xx - 63.5) ** 2 + (yy - 63.5) ** 2 <= 40.0**2
    dim = ch.boundary_box_dimension(disk)
    assert 0.75 <= dim <= 1.25
    with pytest.raises(ValueError):
        ch.boundary_box_dimension(np.zeros((64, 64), dtype=bool))


def test_lyapunov_on_invariant_circle():
    res = ch.lyapunov_estimate(lambda: mpmath.exp(0.7j), 0.0, 300)
    assert not res.terminated
    assert res.n_used == 300
    assert abs(res.chain - math.log(2.0)) <= 1e-9
    assert abs(res.shadow - math.log(2.0)) <= 1e-4


def test_lyapunov_supersink_orbit():
    res = ch.lyapunov_estimate("0.5", 0.0, 50)
    assert res.terminated
    assert res.n_used == 6
    assert res.chain == pytest.approx(-6.547707623433779, rel=1e-12)
    assert res.shadow < -1.0


def test_lyapunov_estimators_agree_where_boundary_orbits_terminate():
    # the 20 starts of the acceptance boundary test, at a budget where every
    # orbit falls into the supersink cycle {-1, inf} (31-45 steps); with the
    # companion 1e-9 away the two estimators differed by up to 0.15 here
    job = ch.RasterJob(re_min=-2.0, re_max=2.0, im_min=-2.0, im_max=2.0,
                       width=128, height=128, max_iters=32,
                       params=ch.MapParams(p=1.0))
    rows, cols = np.nonzero(ch.boundary_mask(ch.julia_raster(job).counts < 0))
    picks = np.linspace(0, len(rows) - 1, 20).astype(int)
    re, im = job.pixel_centers()
    for r, c in zip(rows[picks], cols[picks]):
        res = ch.lyapunov_estimate(complex(re[c], im[r]), 1.0, 200)
        assert res.terminated
        assert abs(res.chain - res.shadow) <= 0.01, (re[c], im[r])


def test_lyapunov_starting_at_infinity():
    res = ch.lyapunov_estimate(INFINITY, 1.0, 10)
    assert res.terminated
    assert res.n_used == 0
    assert math.isnan(res.chain)
    assert math.isnan(res.shadow)


# Frozen from the earlier estimator, which ran every step at n_iters + 128
# bits with a sqrt renormalisation, at n_iters = 200: the p = 0 circle, two
# points next to the p = 1 Julia boundary (both fall into the superattracting
# cycle), a point of the chaotic p = i map, the same point with a companion
# offset far below 64 bits, and a point with an attracting cycle.
LYAPUNOV_FIXED_PRECISION_200 = [
    (lambda: mpmath.exp(0.7j), 0.0, 1e-9,
     0.6931471805599453, 0.6931471805599453, 200, False),
    (-0.390625 - 0.578125j, 1.0, 1e-9,
     -0.6954310977157492, -0.6153817193165735, 45, True),
    (0.453125 - 0.734375j, 1.0, 1e-9,
     -1.0499742425992737, -0.9618677968880561, 33, True),
    (0.25 + 0.5j, 1j, 1e-9,
     0.34703844275902207, 0.3470384428362847, 200, False),
    (0.25 + 0.5j, 1j, 1e-30,
     0.34703844275902207, 0.34703844275902207, 200, False),
    (-0.5 + 0.75j, 0.3 + 0.2j, 1e-9,
     -0.09401731327940877, -0.09401731328443887, 200, False),
]


@pytest.mark.parametrize("z0, p, offset, chain, shadow, n_used, terminated",
                         LYAPUNOV_FIXED_PRECISION_200,
                         ids=["circle", "p1-boundary-a", "p1-boundary-b", "pi",
                              "pi-offset-1e-30", "attracting-cycle"])
def test_lyapunov_matches_fixed_precision_values(z0, p, offset, chain, shadow,
                                                 n_used, terminated):
    res = ch.lyapunov_estimate(z0, p, 200, offset=offset)
    assert res.n_used == n_used
    assert res.terminated == terminated
    assert abs(res.chain - chain) <= 1e-12
    assert abs(res.shadow - shadow) <= 1e-4


def test_lyapunov_guards():
    with pytest.raises(ValueError):
        ch.lyapunov_estimate(0.5, 0.0, 0)
    with pytest.raises(ValueError):
        ch.lyapunov_estimate(0.5, 0.0, 10, offset=0.0)


def test_lyapunov_rejects_nonpositive_supersink_tol():
    with pytest.raises(ValueError):
        ch.lyapunov_estimate(0.5, 0.0, 10, supersink_tol=0.0)


def test_lyapunov_names_every_bad_argument():
    with pytest.raises(ValueError) as info:
        ch.lyapunov_estimate(0.5, 0.0, 10, offset=math.nan, supersink_tol=math.nan)
    assert "offset" in str(info.value) and "supersink_tol" in str(info.value)
    with pytest.raises(ValueError) as info:
        ch.lyapunov_estimate(0.5, 0.0, 0, offset=math.inf, supersink_tol=-1.0)
    for name in ("n_iters", "offset", "supersink_tol"):
        assert name in str(info.value)
    # a fractional n_iters ran its floor, 10 steps, and True ran one
    for n_iters in (10.7, True, 10.0, math.inf):
        with pytest.raises(ValueError, match="n_iters"):
            ch.lyapunov_estimate(0.5, 0.0, n_iters)
    assert ch.lyapunov_estimate(0.25 + 0.5j, 1j, np.int64(10)).n_used == 10
    with pytest.raises(ValueError, match="p must be finite"):
        ch.lyapunov_estimate(0.5, complex(math.inf, 0.0), 10)
    # an offset whose separation, shrunk by supersink_tol, reaches the
    # 1e-300 clamp before the logs (the shadow read 0.34 and 22.6 there)
    for offset in (1e-300, 1e-310):
        with pytest.raises(ValueError) as info:
            ch.lyapunov_estimate(0.25 + 0.5j, 1j, 100, offset=offset)
        assert "offset" in str(info.value)
    near = ch.lyapunov_estimate(0.25 + 0.5j, 1j, 100, offset=1e-278)
    assert abs(near.shadow - ch.lyapunov_estimate(0.25 + 0.5j, 1j, 100).shadow) < 1e-6


def test_lyapunov_ignores_and_keeps_global_mpmath_precision():
    cases = [(lambda: mpmath.exp(0.7j), 0.0, 100), (0.25 + 0.5j, 1j, 100), ("0.5", 0.0, 50)]
    reference = [ch.lyapunov_estimate(*case) for case in cases]
    saved = mpmath.mp.prec
    try:
        mpmath.mp.prec = 30
        assert [ch.lyapunov_estimate(*case) for case in cases] == reference
        assert mpmath.mp.prec == 30
        with pytest.raises(ValueError):
            ch.lyapunov_estimate(0.5, 0.0, 10, offset=math.nan)
        with pytest.raises(ValueError):
            ch.lyapunov_estimate(0.5, math.inf, 10)
        assert mpmath.mp.prec == 30
    finally:
        mpmath.mp.prec = saved


def _lyapunov_mpmath(z0, p, n_iters, offset=1e-9, supersink_tol=1e-12):
    """The estimator's loop on mpmath numbers: the reference for the int loop.

    Same tapered precision and guard; the logs, chordal distances, phase
    and pull factor are 64-bit mpmath numbers, and the homogeneous pairs
    are rescaled by exact powers of two.
    """
    def rescale(u, v):
        s = mpmath.ldexp(1, -max(mpmath.mag(u), mpmath.mag(v)))
        return u * s, v * s

    def advance(u, v, pm, pc):
        uu, vv = u * u, v * v
        return rescale(uu + pm * vv, vv - pc * uu)

    def abs2(z):
        return z.real * z.real + z.imag * z.imag

    n = int(n_iters)
    guard = (ch._LOG_PREC + n.bit_length()
             + ch._bits_below_one(offset) + ch._bits_below_one(supersink_tol))
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
            gu, gv = rescale(mpmath.mpc(1), mpmath.mpc(offset))
        else:
            fu, fv = rescale(zm, mpmath.mpc(1))
            if abs(zm) <= 1.0:
                gu, gv = rescale(zm + offset, mpmath.mpc(1))
            else:
                gu, gv = rescale(mpmath.mpc(1), 1 / zm + offset)
        cross = fu * gv - gu * fv

        ctx.prec = ch._LOG_PREC
        fa, fb = abs2(+fu), abs2(+fv)
        d0 = 2 * abs(cross) / mpmath.sqrt((fa + fb) * (abs2(+gu) + abs2(+gv)))
        tol2 = mpmath.mpf(supersink_tol) ** 2 / 4
        floor = mpmath.mpf("1e-300")
        chain_sum = mpmath.mpf(0)
        shadow_sum = mpmath.mpf(0)
        n_used = 0
        terminated = False
        for k in range(n):
            if fa < tol2 * (fa + fb) or fb < tol2 * (fa + fb):
                terminated = True
                break
            fsharp = 2 * mpmath.sqrt(fa * fb) * (fa + fb) / (fa * fa + fb * fb)
            chain_sum += mpmath.log(max(fsharp, floor))

            ctx.prec = n - k + guard
            pm, pc = +pm, +pc
            fu, fv = advance(fu, fv, pm, pc)
            gu, gv = advance(gu, gv, pm, pc)
            cross = fu * gv - gu * fv

            ctx.prec = ch._LOG_PREC
            fu64, fv64, gu64, gv64 = +fu, +fv, +gu, +gv
            fa, fb = abs2(fu64), abs2(fv64)
            ratio = mpmath.sqrt((fa + fb) / (abs2(gu64) + abs2(gv64)))
            d = max(2 * abs(cross) / (fa + fb) * ratio, floor)
            shadow_sum += mpmath.log(d / d0)
            pull = d0 / d
            inner = mpmath.conj(fu64) * gu64 + mpmath.conj(fv64) * gv64
            scale = abs(inner)
            c = pull * ratio
            if scale > 0:
                c = c * mpmath.conj(inner) / scale

            ctx.prec = n - k + guard
            keep = 1 - pull
            gu, gv = rescale(fu * keep + gu * c, fv * keep + gv * c)
            ctx.prec = ch._LOG_PREC
            n_used += 1

        if n_used == 0:
            return ch.LyapunovResult(chain=math.nan, shadow=math.nan, n_used=0,
                                     terminated=terminated)
        return ch.LyapunovResult(chain=float(chain_sum / n_used),
                                 shadow=float(shadow_sum / n_used),
                                 n_used=n_used, terminated=terminated)


# The frozen-value starts, a supersink start given as a string (also with a
# tolerance whose square is below the float64 range), and infinity.
@pytest.mark.parametrize("z0, p, offset, tol", [
    (lambda: mpmath.exp(0.7j), 0.0, 1e-9, 1e-12),
    (-0.390625 - 0.578125j, 1.0, 1e-9, 1e-12),
    (0.453125 - 0.734375j, 1.0, 1e-9, 1e-12),
    (0.25 + 0.5j, 1j, 1e-9, 1e-12),
    (0.25 + 0.5j, 1j, 1e-30, 1e-12),
    (-0.5 + 0.75j, 0.3 + 0.2j, 1e-9, 1e-12),
    ("0.5", 0.0, 1e-9, 1e-12),
    ("0.5", 0.0, 1e-9, 1e-200),
    (INFINITY, 1.0, 1e-9, 1e-12),
], ids=["circle", "p1-boundary-a", "p1-boundary-b", "pi", "pi-offset-1e-30",
        "attracting-cycle", "supersink-string", "supersink-tol-1e-200", "infinity"])
def test_lyapunov_matches_mpmath_loop(z0, p, offset, tol):
    res = ch.lyapunov_estimate(z0, p, 200, offset=offset, supersink_tol=tol)
    ref = _lyapunov_mpmath(z0, p, 200, offset=offset, supersink_tol=tol)
    assert (res.n_used, res.terminated) == (ref.n_used, ref.terminated)
    if ref.n_used == 0:
        assert math.isnan(res.chain) and math.isnan(res.shadow)
    else:
        assert abs(res.chain - ref.chain) <= 1e-12
        assert abs(res.shadow - ref.shadow) <= 1e-6


def two_orbit_lyapunov(z0, p, n_iters, offset=1e-15, supersink_tol=1e-12):
    """lyapunov_estimate with the companion run as a second exact orbit.

    Both orbits are tapered-precision int pairs; the cross product
    f_u g_v - g_u f_v is exact, and the pull-back applies its factors as
    62-bit fixed-point ints, g <- f (1 - pull) + c g.  The reference of the
    float-separation companion; arguments are assumed valid.
    """
    def scaled(pair, bits):
        s = max(map(int.bit_length, pair)) - bits
        return [x >> s for x in pair] if s >= 0 else [x << -s for x in pair]

    def fp_step(pair, pr, pi, bits):
        ur, ui, vr, vi = scaled(pair, bits)
        uur, uui = ((ur + ui) * (ur - ui)) >> bits, (ur * ui) >> (bits - 1)
        vvr, vvi = ((vr + vi) * (vr - vi)) >> bits, (vr * vi) >> (bits - 1)
        return scaled((uur + ((pr * vvr - pi * vvi) >> bits),
                       uui + ((pr * vvi + pi * vvr) >> bits),
                       vvr - ((pr * uur + pi * uui) >> bits),
                       vvi - ((pr * uui - pi * uur) >> bits)), bits)

    def fixed(x, bits):
        m, e = math.frexp(x)
        return (int(m * 2.0**53) << (e - 53 + bits) if e - 53 + bits >= 0
                else int(math.ldexp(x, bits)))

    def float_parts(f, g, bits):
        (fur, fui, fvr, fvi), (gur, gui, gvr, gvi) = f, g
        s, s2 = 1 << bits, 1 << 2 * bits
        return (complex(fur / s, fui / s), complex(fvr / s, fvi / s),
                complex(gur / s, gui / s), complex(gvr / s, gvi / s),
                complex((fur * gvr - fui * gvi - gur * fvr + gui * fvi) / s2,
                        (fur * gvi + fui * gvr - gur * fvi - gui * fvr) / s2))

    n = int(n_iters)
    guard = (ch._LOG_PREC + n.bit_length()
             + ch._bits_below_one(offset) + ch._bits_below_one(supersink_tol))
    top = n + guard
    one = 1 << top
    with mpmath.workprec(top):
        pm = mpmath.mpc(p() if callable(p) else p)
        zm = mpmath.mpc(z0() if callable(z0) else z0)
        pr, pi = (int(mpmath.ldexp(x, top)) for x in (pm.real, pm.imag))
        off = fixed(offset, top)
        if not mpmath.isfinite(zm):
            f, g = (one, 0, 0, 0), (one, 0, off, 0)
        else:
            zr, zi = (int(mpmath.ldexp(x, top)) for x in (zm.real, zm.imag))
            f = (zr, zi, one, 0)
            g = ((zr + off, zi, one, 0) if abs(zm) <= 1
                 else (zr, zi, one + ((off * zr) >> top), (off * zi) >> top))

    f, g = scaled(f, top), scaled(g, top)
    fu, fv, gu, gv, cross = float_parts(f, g, top)
    a, b = abs(fu), abs(fv)
    d0 = 2 * abs(cross) / (math.hypot(a, b) * math.hypot(abs(gu), abs(gv)))
    chain_logs, shadow_logs, terminated = [], [], False
    for k in range(n):
        if 2 * min(a, b) < supersink_tol * math.hypot(a, b):
            terminated = True
            break
        chain_logs.append(math.log(max(ch._sphere_derivative(a, b), ch._FLOOR)))
        bits = top - k
        f = fp_step(f, pr >> k, pi >> k, bits)
        g = fp_step(g, pr >> k, pi >> k, bits)
        fu, fv, gu, gv, cross = float_parts(f, g, bits)
        a, b = abs(fu), abs(fv)
        nf, ng = math.hypot(a, b), math.hypot(abs(gu), abs(gv))
        d = max(2 * abs(cross) / (nf * ng), ch._FLOOR)
        shadow_logs.append(math.log(d / d0))
        pull = d0 / d
        inner = fu.conjugate() * gu + fv.conjugate() * gv
        c = pull * nf / ng * (inner.conjugate() / abs(inner) if inner else 1)
        keep = (1 << 62) - fixed(pull, 62)
        cr, ci = fixed(c.real, 62), fixed(c.imag, 62)
        (fur, fui, fvr, fvi), (gur, gui, gvr, gvi) = f, g
        g = (fur * keep + gur * cr - gui * ci, fui * keep + gur * ci + gui * cr,
             fvr * keep + gvr * cr - gvi * ci, fvi * keep + gvr * ci + gvi * cr)

    n_used = len(shadow_logs)
    return ch.LyapunovResult(chain=math.fsum(chain_logs) / n_used if n_used else math.nan,
                             shadow=math.fsum(shadow_logs) / n_used if n_used else math.nan,
                             n_used=n_used, terminated=terminated)


def _check_against_two_orbits(args, shadow_tol, **kwargs):
    res, ref = ch.lyapunov_estimate(*args, **kwargs), two_orbit_lyapunov(*args, **kwargs)
    assert (res.n_used, res.terminated) == (ref.n_used, ref.terminated), args
    if ref.n_used == 0:
        assert math.isnan(res.chain) and math.isnan(res.shadow)
    else:
        assert res.chain == ref.chain, args
        assert abs(res.shadow - ref.shadow) <= shadow_tol, args


def test_float_companion_matches_two_orbits_at_terminating_boundary_starts():
    # the 20 p = 1 boundary starts, all of which fall into the supersink
    job = ch.RasterJob(re_min=-2.0, re_max=2.0, im_min=-2.0, im_max=2.0,
                       width=128, height=128, max_iters=32,
                       params=ch.MapParams(p=1.0))
    rows, cols = np.nonzero(ch.boundary_mask(ch.julia_raster(job).counts < 0))
    picks = np.linspace(0, len(rows) - 1, 20).astype(int)
    re, im = job.pixel_centers()
    for r, c in zip(rows[picks], cols[picks]):
        _check_against_two_orbits((complex(re[c], im[r]), 1.0, 200), 1e-6)


def test_float_companion_matches_two_orbits_at_random_starts():
    gen = np.random.default_rng(1906)
    for _ in range(30):
        z0 = complex(*gen.uniform(-2.0, 2.0, 2))
        p = complex(*gen.uniform(-1.5, 1.5, 2))
        _check_against_two_orbits((z0, p, 300), 1e-12)


@pytest.mark.parametrize("z0, p, n_iters, offset", [
    *[(z0, p, 200, offset) for z0, p, offset, *_ in LYAPUNOV_FIXED_PRECISION_200],
    (0.25 + 0.5j, 1j, 100, 1e-278),
], ids=["circle", "p1-boundary-a", "p1-boundary-b", "pi", "pi-offset-1e-30",
        "attracting-cycle", "pi-offset-1e-278"])
def test_float_companion_matches_two_orbits_at_fixed_precision_cases(z0, p, n_iters, offset):
    _check_against_two_orbits((z0, p, n_iters), 1e-8, offset=offset)
