"""End-to-end acceptance checks.

Each test pins one headline number or property of the package at its stated
tolerance, so a verbose run reads as a pass/fail scorecard.  Statistical
checks run on fixed seeds and are therefore deterministic.

Two checks are expected to fail, and are left failing on purpose rather
than loosened; each failure message carries the analysis:

* the time-to-target ratio at impurity 1e-3 (the factor-2 purification
  speed-up is an asymptotic statement, not attained at this target), and
* the second-step fidelity of the iteration fixture (the exact iterate sits
  6.7e-4 below the quoted value, outside the stated window).
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import mpmath
import numpy as np
import pytest

from conftest import random_density, random_hermitian, random_unitary

import qfc
import qfc.chaos as ch
import qfc.entanglement as en
import qfc.purification as pf
import qfc.sme as sme
import qfc.stabilization as sb
import qfc.states as st
from qfc.stochastic import RngStream, ito_quadratic_variation


# -- stabilization ----------------------------------------------------------


def test_weak_feedback_gap_surface_and_spot_check():
    t0 = perf_counter()
    surf = sb.gap_surface(201, 201)
    p_star, theta_star, gap_star = surf.argmax()
    analytic_elapsed = perf_counter() - t0

    assert surf.gap.min() >= -1e-12
    assert abs(gap_star - 0.026) <= 0.002
    assert abs(p_star - 0.115) <= 0.02
    assert abs(theta_star - 0.715) <= 0.02
    assert analytic_elapsed < 10.0

    t0 = perf_counter()
    chi, _ = sb.optimize_chi(p_star, theta_star)
    mean, sem = sb.mc_average_fidelity("weak", p_star, theta_star, 100_000,
                                       RngStream(2026, 0), chi=chi)
    assert abs(mean - sb.f4_closed(p_star, theta_star)) <= 3.0 * sem
    assert perf_counter() - t0 < 60.0


def test_scheme_monte_carlo_matches_closed_forms():
    rng = np.random.default_rng(11)
    for i in range(5):
        p = rng.uniform(0.0, 0.5)
        theta = rng.uniform(0.0, math.pi / 2.0)
        chi, _ = sb.optimize_chi(p, theta)
        for j, scheme in enumerate(("nothing", "discriminate", "weak")):
            closed = sb.scheme_closed_form(scheme, p, theta)
            mean, sem = sb.mc_average_fidelity(
                scheme, p, theta, 100_000, RngStream(500 + i, j), chi=chi)
            assert abs(mean - closed) <= 3.0 * max(sem, 1e-7), \
                (scheme, p, theta, mean, closed)


# -- single-qubit purification ----------------------------------------------


def test_ensemble_impurity_matches_quadrature():
    t0 = perf_counter()
    n_traj = 10_000
    times, mean, var = pf.mc_nofeedback_impurity(
        1.0, 1e-4, 20_000, n_traj, 2026, sample_every=1000)
    sem = np.sqrt(var / n_traj)
    ref = pf.nofeedback_impurity_curve(times, 1.0)
    assert len(times) == 21  # t = 0 plus 20 checkpoints over [0, 2]
    for t, m, s, r in zip(times[1:], mean[1:], sem[1:], ref[1:]):
        assert abs(m - r) <= 3.0 * s, (t, m, r, s)
    assert perf_counter() - t0 < 300.0


def test_feedback_impurity_is_pure_exponential():
    run = pf.PurificationRun(k=1.0, dt=1e-4, horizon=2.0, seed=0)
    times, imp = pf.feedback_impurity_path(run)
    ref = 0.5 * np.exp(-8.0 * times)
    assert np.max(np.abs(imp / ref - 1.0)) <= 1e-3


def test_time_to_target_ratio():
    ratio = pf.speedup_ratio(1e-3)
    assert abs(ratio - 0.5) <= 0.05, (
        f"time-to-target ratio at impurity 1e-3 is {ratio:.6f}, outside the "
        "target window 0.5 +/- 0.05. The no-feedback quadrature reaches 1e-3 "
        "at k*t = 1.2932 while the feedback path needs ln(500)/8 = 0.7768, "
        "so the exact ratio is 0.6007. The ratio does tend to 1/2, but only "
        "as the target impurity tends to zero (it is 0.5686 at 1e-5); no "
        "consistent pair of curves meets the window at 1e-3."
    )


# -- two-qubit iteration fixture --------------------------------------------


def test_iteration_fixture_starting_fidelity():
    fids = ch.bell_purify_iterate(ch.PERTURBED_BELL, 0, raw=True)
    assert abs(fids[0] - 0.5075) <= 1e-12


def test_iteration_fixture_second_step():
    fids = ch.bell_purify_iterate(ch.PERTURBED_BELL, 2, raw=True)
    assert abs(fids[2] - 0.5025) <= 5e-4, (
        f"second-step fidelity is {fids[2]:.10f}, outside the target window "
        "0.5025 +/- 5e-4. Iterating the published starting matrix exactly "
        "(square elements, renormalize, rotate) gives 0.5018256; the quoted "
        "0.5025 is not reproducible from that fixture, and no rounding of "
        "its entries closes a 6.7e-4 gap."
    )


def test_iteration_fixture_even_step_convergence():
    t0 = perf_counter()
    fids = ch.bell_purify_iterate(ch.PERTURBED_BELL, 30, raw=True)
    assert all(fids[k] > 0.999 for k in range(24, 31, 2))
    assert perf_counter() - t0 < 1.0


# -- complex-map chaos ------------------------------------------------------


def test_unit_circle_raster_classification():
    job = ch.RasterJob(re_min=-2.0, re_max=2.0, im_min=-2.0, im_max=2.0,
                       width=64, height=64, max_iters=12)
    counts = ch.julia_raster(job).counts
    re, im = job.pixel_centers()
    radius = np.abs(re[np.newaxis, :] + 1j * im[:, np.newaxis])
    away = np.abs(radius - 1.0) >= 0.15
    ring = np.abs(radius - 1.0) <= 0.02
    assert away.any() and ring.any()
    assert np.all(counts[away] >= 0)   # off the circle: settles to 0 or inf
    assert np.all(counts[ring] == -1)  # the circle itself never settles


def test_circle_lyapunov_matches_log_two():
    t0 = perf_counter()
    res = ch.lyapunov_estimate(lambda: mpmath.exp(0.7j), 0.0, 10_000)
    assert res.n_used == 10_000
    assert abs(res.chain - math.log(2.0)) <= 0.01
    assert perf_counter() - t0 < 120.0


def test_lyapunov_estimators_agree_near_julia_boundary():
    t0 = perf_counter()
    job = ch.RasterJob(re_min=-2.0, re_max=2.0, im_min=-2.0, im_max=2.0,
                       width=128, height=128, max_iters=32,
                       params=ch.MapParams(p=1.0))
    counts = ch.julia_raster(job).counts
    rows, cols = np.nonzero(ch.boundary_mask(counts < 0))
    picks = np.linspace(0, len(rows) - 1, 20).astype(int)
    re, im = job.pixel_centers()
    for r, c in zip(rows[picks], cols[picks]):
        res = ch.lyapunov_estimate(complex(re[c], im[r]), 1.0, 30)
        assert res.n_used > 0
        assert abs(res.chain - res.shadow) <= 0.05, (re[c], im[r])
    assert perf_counter() - t0 < 120.0


def test_julia_raster_determinism_and_fractal_boundary():
    t0 = perf_counter()
    job = ch.RasterJob(re_min=-2.0, re_max=2.0, im_min=-2.0, im_max=2.0,
                       width=512, height=512, max_iters=32,
                       params=ch.MapParams(p=1.0))
    first = ch.julia_raster(job, threads=1).counts
    again = ch.julia_raster(job, threads=4).counts
    assert np.array_equal(first, again)
    stuck = first < 0
    assert stuck.any()
    assert ch.boundary_box_dimension(stuck) > 1.0
    assert perf_counter() - t0 < 120.0


# -- stochastic engine ------------------------------------------------------


def test_monitored_ensemble_average_is_deterministic_decay():
    n_traj = 10_000
    times, mean, var = sme.run_dephasing_ensemble(1.0, 1e-3, 1000, n_traj, 3)
    sem = np.sqrt(var / n_traj)
    ref = 0.5 * np.exp(-4.0 * times)
    for idx in range(100, 1001, 100):
        assert abs(mean[idx] - ref[idx]) <= 3.0 * sem[idx] + 1e-12, \
            (times[idx], mean[idx], ref[idx], sem[idx])


def test_parity_blocks_are_exact_fixed_points():
    rng = np.random.default_rng(41)
    for block, idx in (("plus", [0, 3]), ("minus", [1, 2])):
        rho = np.zeros((4, 4), dtype=complex)
        rho[np.ix_(idx, idx)] = random_density(rng, 2)
        for dw in (0.0, 0.5, -1.3):
            out = en.two_qubit_sme_step(rho, 1.0, 1e-3, dw)
            assert np.max(np.abs(out - rho)) <= 1e-12, block


def test_wiener_quadratic_variation():
    n = 1_000_000
    qv = ito_quadratic_variation(RngStream(8), 1.0, n)
    assert abs(qv - 1.0) <= 3.0 * math.sqrt(2.0 / n)


def test_entropy_invariance_without_channels():
    rng = np.random.default_rng(51)
    model = sme.SmeModel(dim=3, hamiltonian_base=random_hermitian(rng, 3))
    rho = random_density(rng, 3)
    s0 = st.von_neumann_entropy(rho)
    for _ in range(1000):
        rho = sme.lindblad_step(model, rho, 1e-3)
    assert abs(st.von_neumann_entropy(rho) - s0) <= 1e-10


def test_purity_never_increases_under_commuting_feedback():
    rng = np.random.default_rng(12)
    for i in range(100):
        d = (2, 3, 4)[i % 3]
        v = random_unitary(rng, d)
        spectra = rng.normal(size=(3, d))
        ops = [(v * row) @ v.conj().T for row in spectra]
        u_gain = rng.uniform(-2.0, 2.0)
        model = sme.SmeModel(
            dim=d, hamiltonian_base=ops[0], control_channel=ops[1],
            control_law=lambda t, r, u=u_gain: u,
            channels=[sme.Channel(op=ops[2], rate=rng.uniform(0.1, 2.0))])
        rho = random_density(rng, d)
        assert sme.purity_derivative_check(model, rho) <= 1e-8


# -- entanglement protocol --------------------------------------------------


def test_protocol_reaches_near_maximal_correlation():
    t0 = perf_counter()
    rho0 = np.eye(4, dtype=complex) / 4.0
    wins = 0
    for seed in range(100):
        try:
            res = en.entangle_protocol(rho0, 1.0, 1e-3, 10.0, seed=seed)
            reached = res.r_squared[-1] > 2.9
        except en.ProtocolBudgetError as err:
            res = err.result
            reached = False
        assert res.r_squared.max() <= 3.0 + 1e-9, seed
        wins += reached
    assert wins >= 95
    assert perf_counter() - t0 < 300.0

    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = random_density(rng, 4)
        u = st.tensor_product(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(en._r_squared(rotated) - en._r_squared(rho)) <= 1e-10


# -- command-line reproducibility -------------------------------------------


def test_cli_outputs_are_byte_identical_across_threads(tmp_path):
    env = dict(os.environ)
    env.pop("QFC_THREADS", None)
    # the child runs in tmp_path, where a relative PYTHONPATH entry such as
    # "src" points nowhere: put the directory holding qfc first, absolute
    src_dir = str(Path(qfc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "qfc", *args],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    raster = tmp_path / "raster"
    args = ["julia", "--grid", "96x96", "--max-iters", "40",
            "--seed", "5", "--out", str(raster)]
    run(args)
    csv_bytes = raster.with_suffix(".csv").read_bytes()
    pgm_bytes = raster.with_suffix(".pgm").read_bytes()
    run(args + ["--threads", "4"])
    assert raster.with_suffix(".csv").read_bytes() == csv_bytes
    assert raster.with_suffix(".pgm").read_bytes() == pgm_bytes
    run(args)  # plain rerun, same seed
    assert raster.with_suffix(".csv").read_bytes() == csv_bytes
    assert raster.with_suffix(".pgm").read_bytes() == pgm_bytes

    # the ensembles run on one thread, so --threads must change nothing;
    # spin-collapse and purify run more trajectories than one chunk of 256,
    # so their chunks are merged
    for name, args in [
            ("ensemble", ["sme-run", "--t-max", "0.2", "--trajectories", "64"]),
            ("spin", ["spin-collapse", "--t-max", "0.05", "--trajectories", "300"]),
            ("purify", ["purify", "--t-max", "0.05", "--trajectories", "1500"])]:
        csv = (tmp_path / name).with_suffix(".csv")
        args = args + ["--out", str(tmp_path / name)]
        run(args)
        csv_bytes = csv.read_bytes()
        run(args + ["--threads", "3"])
        assert csv.read_bytes() == csv_bytes, name
        run(args)  # plain rerun, same seed
        assert csv.read_bytes() == csv_bytes, name
