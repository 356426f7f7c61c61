"""The master-equation engine: superoperators, steps, spin models."""

import mpmath
import numpy as np
import pytest
from conftest import random_density, random_hermitian, random_unitary

from qfc import sme
from qfc.states import (SZ, angular_momentum_ops, density, tensor_product,
                        von_neumann_entropy)
from qfc.stochastic import IntegrationError, RngStream

ZZ = tensor_product(SZ, SZ)


def dephasing_model(k):
    return sme.SmeModel(dim=2, channels=[sme.Channel(op=SZ, rate=2.0 * k,
                                                     efficiency=1.0)])


def test_dissipator_identities():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 3)
    out = sme.dissipator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
                         rho)
    assert abs(np.trace(out)) < 1e-10
    u = random_unitary(rng, 3)
    assert np.max(np.abs(sme.dissipator(u, np.eye(3) / 3.0))) < 1e-12
    # inside a degenerate eigenspace the channel extracts nothing
    blocked = np.zeros((4, 4), dtype=complex)
    blocked[0, 0] = blocked[3, 3] = 0.5
    blocked[0, 3] = blocked[3, 0] = 0.3
    assert np.max(np.abs(sme.dissipator(ZZ, blocked))) < 1e-12


def test_meas_superop_identities():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 3)
    c = random_hermitian(rng, 3)
    assert abs(np.trace(sme.meas_superop(c, rho))) < 1e-10
    evals, vecs = np.linalg.eigh(c)
    eig = density(vecs[:, 0])
    assert np.max(np.abs(sme.meas_superop(c, eig))) < 1e-10
    assert np.allclose(sme.meas_superop(SZ, np.eye(2) / 2.0), SZ)


def test_channel_guards():
    with pytest.raises(ValueError):
        sme.Channel(op=SZ, rate=-1.0)
    with pytest.raises(ValueError):
        sme.Channel(op=SZ, rate=1.0, efficiency=2.0)
    with pytest.raises(ValueError):
        sme.SmeModel(dim=3, channels=[sme.Channel(op=SZ, rate=1.0)])


def test_lindblad_dephasing_decay():
    k, dt = 1.0, 1e-4
    model = dephasing_model(k)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    for i in range(10_000):
        rho = sme.lindblad_step(model, rho, dt)
    assert abs(rho[0, 1].real - 0.5 * np.exp(-4.0)) < 1e-4


def test_channel_free_step_preserves_entropy_exactly():
    rng = np.random.default_rng(2)
    model = sme.SmeModel(dim=3, hamiltonian_base=random_hermitian(rng, 3))
    rho = random_density(rng, 3)
    s0 = von_neumann_entropy(rho)
    for _ in range(1000):
        rho = sme.lindblad_step(model, rho, 1e-3)
    assert abs(von_neumann_entropy(rho) - s0) < 1e-10


def test_channel_free_step_is_the_exact_unitary():
    rng = np.random.default_rng(5)
    h, dt = random_hermitian(rng, 4), 0.37
    rho = random_density(rng, 4)
    model = sme.SmeModel(dim=4, hamiltonian_base=h)
    with mpmath.workdps(30):
        u_mp = mpmath.expm(mpmath.matrix(-1j * dt * h))
        u = np.array(u_mp.tolist(), dtype=complex)
    got = sme.lindblad_step(model, rho, dt)
    assert np.max(np.abs(got - u @ rho @ u.conj().T)) < 1e-13
    # the step maps the identity to U U^dag, which is the identity only if
    # the step's U is unitary
    assert np.max(np.abs(sme.lindblad_step(model, np.eye(4), dt) - np.eye(4))) < 1e-13


def test_maximally_mixed_is_fixed():
    rng = np.random.default_rng(3)
    model = sme.SmeModel(dim=3, channels=[
        sme.Channel(op=random_hermitian(rng, 3), rate=1.0)])
    rho = np.eye(3) / 3.0
    out = sme.lindblad_step(model, rho, 1e-3)
    assert np.max(np.abs(out - rho)) < 1e-12


def test_sme_step_reduces_to_lindblad_without_noise():
    k = 1.0
    model = dephasing_model(k)
    rho = random_density(np.random.default_rng(4), 2)
    a = sme.sme_step(model, rho, 1e-4, [0.0])
    b = sme.lindblad_step(model, rho, 1e-4)
    assert np.max(np.abs(a - b)) < 1e-14
    unmonitored = sme.SmeModel(dim=2, channels=[
        sme.Channel(op=SZ, rate=2.0 * k, efficiency=0.0)])
    c = sme.sme_step(unmonitored, rho, 1e-4, [])
    assert np.max(np.abs(c - b)) < 1e-14
    with pytest.raises(ValueError):
        sme.sme_step(model, rho, 1e-4, [0.0, 0.0])


def test_sme_matches_bloch_form_per_step():
    # matrix step against the scalar Bloch-component update, one step
    k, dt, dw = 0.7, 1e-4, 0.003
    model = dephasing_model(k)
    a = np.array([0.3, -0.2, 0.4])
    rho = 0.5 * np.array([[1.0 + a[2], a[0] - 1j * a[1]],
                          [a[0] + 1j * a[1], 1.0 - a[2]]], dtype=complex)
    out = sme.sme_step(model, rho, dt, [dw])
    az = a[2] + (1.0 - a[2] ** 2) * np.sqrt(8.0 * k) * dw
    ax = a[0] * (1.0 - 4.0 * k * dt) - a[0] * a[2] * np.sqrt(8.0 * k) * dw
    got_z = (out[0, 0] - out[1, 1]).real
    got_x = 2.0 * out[0, 1].real
    norm = 1.0  # renormalization only divides by the trace, which stays 1
    assert abs(got_z - az / norm) < 5e-7
    assert abs(got_x - ax / norm) < 5e-7


def test_ensemble_mean_matches_lindblad():
    k, dt, n_steps, n_traj = 1.0, 1e-3, 300, 3000
    times, mean, var = sme.run_dephasing_ensemble(k, dt, n_steps, n_traj, 17)
    sem = np.sqrt(var / n_traj)
    model = dephasing_model(k)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    det = np.empty(n_steps + 1)
    det[0] = 0.5
    for i in range(n_steps):
        rho = sme.lindblad_step(model, rho, dt)
        det[i + 1] = rho[0, 1].real
    idx = np.arange(30, n_steps + 1, 30)
    assert np.all(np.abs(mean[idx] - det[idx]) <= 3.0 * sem[idx] + 1e-12)


def test_dephasing_ensemble_thread_invariance():
    a = sme.run_dephasing_ensemble(1.0, 1e-3, 50, 500, 23, chunk=64, threads=1)
    b = sme.run_dephasing_ensemble(1.0, 1e-3, 50, 500, 23, chunk=64, threads=5)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_dephasing_ensemble_samples_inside_the_loop():
    # 50 steps is not a multiple of 7; 300 trajectories in chunks of 64 is 5 chunks
    full = sme.run_dephasing_ensemble(1.0, 1e-3, 50, 300, 29, chunk=64)
    for threads in (1, 2):
        sampled = sme.run_dephasing_ensemble(1.0, 1e-3, 50, 300, 29, sample_every=7,
                                             chunk=64, threads=threads)
        assert len(sampled[0]) == 8
        for x, y in zip(sampled, full):
            assert np.array_equal(x, y[::7])


def test_spin_model_collapse_and_fixed_points():
    two_j = 2
    model = sme.spin_ensemble_model(two_j, strength=1.0)
    fx, fy, fz = angular_momentum_ops(two_j)
    d = two_j + 1
    # an F_z eigenstate is a fixed point of drift and diffusion
    eig = np.zeros((d, d), dtype=complex)
    eig[0, 0] = 1.0
    step = sme.sme_step(model, eig, 1e-3, [0.02])
    assert np.max(np.abs(step - eig)) < 1e-12
    # from the maximally mixed state, long monitoring projects
    rho = np.eye(d, dtype=complex) / d
    stream = RngStream(31)
    for i in range(4000):
        rho = sme.sme_step(model, rho, 1e-3, [float(stream.wiener(1e-3))])
        if (i + 1) % 100 == 0:
            rho = 0.5 * (rho + rho.conj().T)
    assert np.linalg.eigvalsh(rho).max() > 0.99


def test_spin_model_control_law_and_extra_channel():
    law_calls = []

    def law(t, rho):
        law_calls.append(t)
        return 0.25

    model = sme.spin_ensemble_model(2, u_law=law, s=0.3, strength=1.0,
                                    eta=0.5, extra_channel=(np.eye(3), 0.1))
    fx, fy, fz = angular_momentum_ops(2)
    h = model.hamiltonian(0.0, None)
    assert np.allclose(h, 0.25 * fy + 0.3 * fz)
    assert len(model.channels) == 2
    assert model.channels[1].efficiency == 0.0
    assert len(model.measured()) == 1


def test_purity_derivative_check():
    rng = np.random.default_rng(6)
    model = sme.SmeModel(dim=2, hamiltonian_base=SZ,
                         control_channel=SZ, control_law=lambda t, r: 0.7,
                         channels=[sme.Channel(op=SZ, rate=0.8)])
    for _ in range(20):
        rho = random_density(rng, 2)
        assert sme.purity_derivative_check(model, rho) <= 1e-8
        # the dephasing alone acts: rho_01 decays at twice the rate 0.8
        assert sme.purity_derivative_check(model, rho) == pytest.approx(
            -8.0 * 0.8 * abs(rho[0, 1]) ** 2, rel=1e-12, abs=1e-15)
    assert abs(sme.purity_derivative_check(model, np.eye(2) / 2.0)) < 1e-10
    noncommuting = sme.SmeModel(
        dim=2, hamiltonian_base=np.array([[0.0, 1.0], [1.0, 0.0]]),
        channels=[sme.Channel(op=SZ, rate=1.0)])
    with pytest.raises(ValueError):
        sme.purity_derivative_check(noncommuting, np.eye(2) / 2.0)


# -- the batched kernel on real Hermitian coordinates ------------------------


def random_model(rng, d):
    """Hamiltonian, a state-dependent control law, two monitored channels and
    one unmonitored one, with non-Hermitian operators."""
    def op():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    return sme.SmeModel(
        dim=d, hamiltonian_base=random_hermitian(rng, d),
        control_channel=random_hermitian(rng, d),
        control_law=lambda t, r: 0.3 + t + np.real(r[..., 0, 1]),
        channels=[sme.Channel(op=op(), rate=rng.uniform(0.2, 1.0),
                              efficiency=rng.uniform(0.1, 1.0)),
                  sme.Channel(op=op(), rate=rng.uniform(0.2, 1.0)),
                  sme.Channel(op=op(), rate=rng.uniform(0.2, 1.0),
                              efficiency=1.0)])


def matrix_euler_step(model, rho, dt, dws, t):
    """The conditioned Euler step written out on the density matrix."""
    h = model.hamiltonian(t, rho)
    out = rho + dt * -1j * (h @ rho - rho @ h)
    for ch in model.channels:
        out = out + dt * ch.rate * sme.dissipator(ch.op, rho)
    for ch, dw in zip(model.measured(), dws):
        out = out + np.sqrt(ch.rate * ch.efficiency) * sme.meas_superop(ch.op, rho) * dw
    return out / np.trace(out).real


def test_coordinates_round_trip_exactly():
    rng = np.random.default_rng(20)
    for d in (2, 3, 4, 5):
        x = rng.normal(size=(3, 4, d * d))
        rho = sme.from_coords(x)
        assert rho.shape == (3, 4, d, d)
        assert np.array_equal(rho, np.conj(np.swapaxes(rho, -1, -2)))
        assert np.array_equal(np.diagonal(rho, axis1=-2, axis2=-1).real, x[..., :d])
        n = d * (d - 1) // 2  # x = (diagonal, Re upper, Im upper)
        assert np.array_equal(rho[..., 0, 1], x[..., d] + 1j * x[..., d + n])
        assert np.array_equal(sme.to_coords(rho), x)
        assert np.array_equal(sme.from_coords(sme.to_coords(rho)), rho)


def test_step_matches_matrix_euler_step():
    rng = np.random.default_rng(21)
    for d in (2, 3, 4, 5):
        model = random_model(rng, d)
        assert "generator" not in vars(model)  # built on first use only
        for _ in range(5):
            rho = sme.from_coords(sme.to_coords(random_density(rng, d)))
            dws = rng.normal(scale=np.sqrt(1e-3), size=2)
            t = rng.uniform(0.0, 2.0)
            got = sme.step(model, sme.to_coords(rho)[None], 1e-3, dws[None], t)
            want = matrix_euler_step(model, rho, 1e-3, dws, t)
            assert np.max(np.abs(sme.from_coords(got[0]) - want)) < 1e-12, d
            assert np.max(np.abs(sme.sme_step(model, rho, 1e-3, dws, t) - want)) < 1e-12


def test_batch_rows_match_single_steps():
    rng = np.random.default_rng(22)
    for d in (2, 3, 5):
        model = random_model(rng, d)
        x = sme.to_coords(np.array([random_density(rng, d) for _ in range(7)]))
        dws = rng.normal(scale=np.sqrt(1e-3), size=(7, 2))
        batch = sme.step(model, x, 1e-3, dws, 0.4)
        for i in range(7):
            one = sme.step(model, x[i:i + 1], 1e-3, dws[i:i + 1], 0.4)
            assert np.max(np.abs(batch[i] - one[0])) < 1e-14
        assert np.allclose(batch[:, :d].sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_step_raises_when_the_trace_is_lost():
    model = dephasing_model(1.0)
    x = sme.to_coords(np.eye(2) / 2.0)[None]
    for bad_x, dw in ((x, [[np.nan]]), (x, [[np.inf]]), (0.0 * x, [[0.0]]),
                      (-x, [[0.0]])):
        with np.errstate(invalid="ignore"), pytest.raises(IntegrationError):
            sme.step(model, bad_x, 1e-3, np.array(dw))
    # finite coordinates whose trace overflows
    unmonitored = sme.SmeModel(dim=2, channels=[sme.Channel(op=SZ, rate=2.0)])
    with np.errstate(over="ignore"), pytest.raises(IntegrationError):
        sme.step(unmonitored, np.array([[1e308, 1e308, 0.0, 0.0]]), 1e-3,
                 np.zeros((1, 0)))
