"""The master-equation engine: superoperators, steps, spin models."""

import mpmath
import numpy as np
import pytest
from conftest import angular_momentum_ops, random_density, random_hermitian, random_unitary

from qfc import purification as pf
from qfc import sme
from qfc.states import SZ, density, tensor_product, von_neumann_entropy
from qfc.stochastic import IntegrationError, RngStream

ZZ = tensor_product(SZ, SZ)


def spin_model(two_j, strength, eta=1.0, s=0.0):
    """Collective spin: H = s F_z and a monitored F_z channel."""
    fz = angular_momentum_ops(two_j)[2]
    return sme.SmeModel(dim=two_j + 1, hamiltonian_base=s * fz,
                        channels=[sme.Channel(op=fz, rate=strength, efficiency=eta)])


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


@pytest.mark.parametrize("k", [-1.0, 0.0, np.nan, np.inf])
def test_strengths_must_be_positive_and_finite(k):
    with pytest.raises(ValueError):
        sme.Channel(op=SZ, rate=k)
    with pytest.raises(ValueError):
        sme.run_dephasing_ensemble(k, 1e-3, 10, 2, 0)
    with pytest.raises(ValueError):
        pf.mc_nofeedback_impurity(k, 1e-3, 10, 2, 0)
    with pytest.raises(ValueError):
        pf.nofeedback_impurity_curve([0.1], k)
    with pytest.raises(ValueError):
        pf.PurificationRun(k=k, dt=1e-4, horizon=1.0)


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


@pytest.mark.parametrize("make, names", [
    (lambda: sme.Channel(op=[[np.nan, 0.0], [0.0, 1.0]], rate=1.0),
     ["operator must be finite"]),
    (lambda: sme.Channel(op=SZ, rate=-1.0, efficiency=3.0), ["rate", "efficiency"]),
    (lambda: sme.Channel(op=np.ones((2, 3)), rate=np.inf, efficiency=np.nan),
     ["square", "rate", "efficiency"]),
    (lambda: sme.SmeModel(dim=2.5), ["dim"]),
    (lambda: sme.SmeModel(dim=True), ["dim"]),
    (lambda: sme.SmeModel(dim=2, hamiltonian_base=[[np.inf, 0.0], [0.0, 0.0]]),
     ["hamiltonian_base must be finite"]),
    (lambda: sme.SmeModel(dim=3, control_channel=SZ, channels=[
        sme.Channel(op=np.eye(3), rate=1.0), sme.Channel(op=SZ, rate=1.0)]),
     ["control_channel", "channel 1"]),
])
def test_model_inputs_name_every_problem(make, names):
    with pytest.raises(ValueError) as err:
        make()
    for name in names:
        assert name in str(err.value)


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
    batch = np.stack([rho] * 3)
    for states, dws in ((rho, [0.0, 0.0]), (rho, 0.0), (batch, np.zeros(3)),
                        (batch, np.zeros((3, 2)))):
        with pytest.raises(ValueError):
            sme.sme_step(model, states, 1e-4, dws)


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


def qnd_update(rho, eigs, a, dt, dw):
    """The closed-form update of a state monitored non-demolition: record
    increment dy = a <L> dt + dw, rho -> K rho K / Tr, K = exp(a L dy / 2 -
    a^2 L^2 dt / 4), for L = diag(eigs); on the diagonal p_m ~ p_m exp(a m dy
    - a^2 m^2 dt / 2), the law the ensemble commands read from the record."""
    dy = a * (np.diag(rho).real @ eigs) * dt + dw
    kraus = np.exp(0.5 * a * eigs * dy - 0.25 * a * a * eigs ** 2 * dt)
    out = kraus[:, None] * rho * kraus[None, :]
    return out / np.trace(out).real


def test_qnd_closed_form_is_the_euler_step_to_first_order():
    # one Euler step with a small dw moves the state as the closed form
    # does, to first order in dw: this pins a = sqrt(8k) for dephasing and
    # a = 2 sqrt(strength eta) for the spin, eta < 1 included
    dt, dw = 1e-12, 1e-6
    two_j, strength, eta = 4, 0.7, 0.5
    spin = spin_model(two_j, strength, eta, s=0.3)
    diagonal = np.diag([0.1, 0.3, 0.25, 0.15, 0.2]).astype(complex)
    theta = 0.6  # cos(theta)|0> + sin(theta)|1>: |+> coherence, uneven populations
    psi = np.array([np.cos(theta), np.sin(theta)])
    k = 0.8
    for model, rho, eigs, a in [
            (spin, diagonal, 0.5 * two_j - np.arange(two_j + 1),
             2.0 * np.sqrt(strength * eta)),
            (dephasing_model(k), np.outer(psi, psi).astype(complex),
             np.array([1.0, -1.0]), np.sqrt(8.0 * k))]:
        euler = sme.sme_step(model, rho, dt, [dw]) - rho
        exact = qnd_update(rho, eigs, a, dt, dw) - rho
        assert np.max(np.abs(euler)) > 1e-7
        assert np.max(np.abs(euler - exact)) < 1e-4 * np.max(np.abs(euler))


def euler_bias(oracle, exact, amp, run, k, t_end, n, n_traj, seed, strides):
    """(bias, sem) of the Euler filter per stride, against the exact read of
    the same measurement records.

    The records are the ones ``run(k, t_end / n, n, ...)`` samples, y = amp t
    + B_t on the grid of dt = t_end / n, and ``run`` must average the exact
    read of them (checked on the first 100).  oracle = (x0, advance, read, z):
    the filter takes stride grid steps at a time, h = stride dt, with the
    innovation dw = dy - amp z(x) h, z(x) its <sigma_z>.
    """
    x0, advance, read, z = oracle
    dt = t_end / n
    dy = np.array([amp * dt + RngStream(seed, i).wiener(np.full(n, dt))
                   for i in range(n_traj)])
    exact_t = exact(np.cumsum(dy, axis=1)[:, -1])
    _, mean, _ = run(k, dt, n, 100, seed)
    assert abs(mean[-1] - exact_t[:100].mean()) < 1e-14
    out = []
    for stride in strides:
        h = stride * dt
        x = np.tile(x0, (n_traj, 1))
        for block in dy.reshape(n_traj, -1, stride).sum(axis=2).T:
            x = advance(x, h, block - amp * z(x) * h)
        diff = read(x) - exact_t
        out.append((diff.mean(), diff.std() / np.sqrt(n_traj)))
    return np.array(out).T


def test_euler_oracles_converge_weakly_to_the_exact_sampler():
    # the per-step Euler loops that the purify and sme-run ensembles ran
    # before they sampled their records exactly, fed the same records; the
    # dephasing step loses the trace at k h = 4e-3, so its steps are finer
    # and its ensemble larger
    k, t_end, seed = 1.0, 0.5, 12
    amp = np.sqrt(8.0 * k)

    def purify_advance(a_z, h, dw):
        a_z = a_z + (1.0 - a_z * a_z) * amp * dw[:, None]
        return np.minimum(np.maximum(a_z, -1.0), 1.0)

    purify = (np.zeros(1), purify_advance, lambda a_z: 0.5 * (1.0 - a_z[:, 0] ** 2),
              lambda a_z: a_z[:, 0])

    def dephasing_advance(x, h, dw):
        # the Euler step of the channel (sigma_z, rate 2k) on the columns
        # (rho_00, rho_11, Re rho_01), divided by the trace
        z, g = x[:, 0] - x[:, 1], amp * dw
        out = x * np.column_stack([1.0 + g * (1.0 - z), 1.0 - g * (1.0 + z),
                                   1.0 - 4.0 * k * h - g * z])
        tr = out[:, 0] + out[:, 1]
        if not (tr.min() > 0.0 and tr.max() < np.inf):
            raise IntegrationError("trace lost during SME step")
        return out / tr[:, None]

    dephasing = (np.full(3, 0.5), dephasing_advance, lambda x: x[:, 2],
                 lambda x: x[:, 0] - x[:, 1])
    for oracle, exact, run, n, n_traj in [
            (purify, lambda y: 0.5 / np.cosh(amp * y) ** 2, pf.mc_nofeedback_impurity,
             500, 8000),
            (dephasing, lambda y: 0.5 / np.cosh(amp * y), sme.run_dephasing_ensemble,
             1000, 12000)]:
        bias, sem = euler_bias(oracle, exact, amp, run, k, t_end, n, n_traj, seed,
                               (4, 2, 1))
        assert 3.0 * sem[0] < abs(bias[0])
        assert np.all(np.abs(bias[1:]) < np.abs(bias[:-1]))


def test_spin_model_collapse_and_fixed_points():
    two_j = 2
    model = spin_model(two_j, 1.0)
    d = two_j + 1
    # an F_z eigenstate is a fixed point of drift and diffusion
    eig = np.zeros((d, d), dtype=complex)
    eig[0, 0] = 1.0
    step = sme.sme_step(model, eig, 1e-3, [0.02])
    assert np.max(np.abs(step - eig)) < 1e-12
    # from the maximally mixed state, long monitoring projects; the step
    # keeps the state Hermitian without any repair
    rho = np.eye(d, dtype=complex) / d
    stream = RngStream(31)
    skew = 0.0
    for _ in range(4000):
        rho = sme.sme_step(model, rho, 1e-3, [float(stream.wiener(1e-3))])
        skew = max(skew, np.max(np.abs(rho - rho.conj().T)))
    assert skew <= 1e-15
    assert np.linalg.eigvalsh(rho).max() > 0.99


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


# -- the batched kernel against the matrix Euler step ------------------------


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


def test_step_matches_matrix_euler_step():
    rng = np.random.default_rng(21)
    for d in (2, 3, 4, 5):
        model = random_model(rng, d)
        for _ in range(5):
            rho = random_density(rng, d)
            dws = rng.normal(scale=np.sqrt(1e-3), size=2)
            t = rng.uniform(0.0, 2.0)
            want = matrix_euler_step(model, rho, 1e-3, dws, t)
            assert np.max(np.abs(sme.sme_step(model, rho, 1e-3, dws, t) - want)) < 1e-12, d


def test_batch_rows_match_single_steps():
    rng = np.random.default_rng(22)
    for d in (2, 3, 5):
        model = random_model(rng, d)
        rho = np.array([random_density(rng, d) for _ in range(7)])
        dws = rng.normal(scale=np.sqrt(1e-3), size=(7, 2))
        batch = sme.sme_step(model, rho, 1e-3, dws, 0.4)
        for i in range(7):
            one = sme.sme_step(model, rho[i], 1e-3, dws[i], 0.4)
            assert np.max(np.abs(batch[i] - one)) < 1e-14
        assert np.allclose(np.trace(batch, axis1=1, axis2=2), 1.0, rtol=0, atol=1e-15)
        # without channels the exact unitary, one H(t, rho) per state
        free = sme.SmeModel(dim=d, hamiltonian_base=model.hamiltonian_base,
                            control_channel=model.control_channel,
                            control_law=model.control_law)
        batch = sme.lindblad_step(free, rho, 1e-3, 0.4)
        for i in range(7):
            one = sme.lindblad_step(free, rho[i], 1e-3, 0.4)
            assert np.max(np.abs(batch[i] - one)) < 1e-14


def test_step_raises_when_the_trace_is_lost():
    model = dephasing_model(1.0)
    rho = np.eye(2) / 2.0
    for bad_rho, dw in ((rho, [np.nan]), (rho, [np.inf]), (0.0 * rho, [0.0]),
                        (-rho, [0.0])):
        with np.errstate(invalid="ignore"), pytest.raises(IntegrationError):
            sme.sme_step(model, bad_rho, 1e-3, dw)
    # finite entries whose trace overflows
    unmonitored = sme.SmeModel(dim=2, channels=[sme.Channel(op=SZ, rate=2.0)])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError):
        sme.sme_step(unmonitored, np.diag([1e308, 1e308]), 1e-3, [])
