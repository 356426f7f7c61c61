"""Tests for the parity-measurement entanglement protocol."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_density, random_unitary

import qfc.entanglement as en
import qfc.states as st
from qfc.stochastic import IntegrationError, RngStream


def embed_block(rho2, block):
    """Place a single-qubit density matrix on one parity block."""
    out = np.zeros((4, 4), dtype=complex)
    idx = [1, 2] if block == "minus" else [0, 3]
    out[np.ix_(idx, idx)] = rho2
    return out


def test_which_block_triple_is_pauli():
    x, y, z = en.Q1_TRIPLE
    for a in (x, y, z):
        assert np.allclose(a @ a, np.eye(4))
    assert np.allclose(x @ y - y @ x, 2j * z)
    assert np.allclose(y @ z - z @ y, 2j * x)
    assert np.allclose(z @ x - x @ z, 2j * y)


def test_within_block_triple_is_pauli_and_commutes_with_which_block():
    x, y, z = en.Q2_TRIPLE
    for a in (x, y, z):
        assert np.allclose(a @ a, np.eye(4))
    assert np.allclose(x @ y - y @ x, 2j * z)
    assert np.allclose(y @ z - z @ y, 2j * x)
    assert np.allclose(z @ x - x @ z, 2j * y)
    for a in en.Q1_TRIPLE:
        for b in en.Q2_TRIPLE:
            assert np.allclose(a @ b, b @ a)
    # so the products S_a T_b are an orthogonal basis: tr(S_a T_b S_c T_d) = 4 dd
    basis = en._PRODUCTS.reshape(16, 4, 4)
    gram = np.einsum("kij,lji->kl", basis, basis)
    assert np.allclose(gram, 4.0 * np.eye(16), atol=1e-14)


@pytest.mark.parametrize("block", ["plus", "minus"])
def test_within_block_triple_restricts_to_pauli(block):
    triple = en.PLUS_TRIPLE if block == "plus" else en.MINUS_TRIPLE
    own = [0, 3] if block == "plus" else [1, 2]
    other = [1, 2] if block == "plus" else [0, 3]
    paulis = (st.SX, st.SY, st.SZ)
    for op, pauli in zip(triple, paulis):
        assert np.allclose(op[np.ix_(own, own)], pauli)
        assert np.allclose(op[np.ix_(other, other)], 0.0)


def test_bell_target_is_symmetric_bell_state():
    rho = st.density(st.bell_state("psi+"))
    assert np.allclose(en.BELL_TARGET, rho)


def test_which_block_vector_examples():
    psi_minus = st.density(st.bell_state("psi-"))
    assert np.allclose(en.which_block_vector(psi_minus), [0.0, 0.0, -1.0])
    phi_plus = st.density(st.bell_state("phi+"))
    assert np.allclose(en.which_block_vector(phi_plus), [0.0, 0.0, 1.0])
    # |0>|+> has parity fully undetermined: a which-block equator state
    plus_x = st.density(np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0))
    assert np.allclose(en.which_block_vector(plus_x), [1.0, 0.0, 0.0])
    plus_y = st.density(np.array([1.0, 1.0j, 0.0, 0.0]) / math.sqrt(2.0))
    assert np.allclose(en.which_block_vector(plus_y), [0.0, 1.0, 0.0])


def test_which_block_vector_matches_triple_expectations():
    rho = random_density(np.random.default_rng(7), 4)
    vec = en.which_block_vector(rho)
    expect = [float(np.trace(op @ rho).real) for op in en.Q1_TRIPLE]
    assert np.allclose(vec, expect, atol=1e-13)


def test_block_components_on_bell_states():
    for name, block, sign in [
        ("psi+", "minus", 1.0),
        ("psi-", "minus", -1.0),
        ("phi+", "plus", 1.0),
        ("phi-", "plus", -1.0),
    ]:
        rho = st.density(st.bell_state(name))
        x, y, z, w = en.block_components(rho, block)
        assert np.allclose([x, y, z, w], [sign, 0.0, 0.0, 1.0], atol=1e-14)
    with pytest.raises(ValueError):
        en.block_components(np.eye(4) / 4.0, "sideways")


def test_bell_fidelity_values():
    assert en.bell_fidelity(st.density(st.bell_state("psi+"))) == pytest.approx(1.0)
    assert en.bell_fidelity(st.density(st.bell_state("psi-"))) == pytest.approx(0.0, abs=1e-15)
    assert en.bell_fidelity(st.density(st.bell_state("phi+"))) == pytest.approx(0.0, abs=1e-15)
    assert en.bell_fidelity(np.eye(4) / 4.0) == pytest.approx(0.25)
    rho = random_density(np.random.default_rng(11), 4)
    assert en.bell_fidelity(rho) == pytest.approx(
        st.fidelity_trace(en.BELL_TARGET, rho), abs=1e-13
    )


def test_leakage_weight():
    assert en.leakage_weight(np.eye(4) / 4.0) == 0.0
    for name in ("psi+", "psi-", "phi+", "phi-"):
        assert en.leakage_weight(st.density(st.bell_state(name))) == pytest.approx(0.0, abs=1e-15)
    plus_plus = st.density(np.full(4, 0.5))
    assert en.leakage_weight(plus_plus) == pytest.approx(0.5)
    rho = random_density(np.random.default_rng(3), 4)
    corners = np.array([rho[0, 1], rho[0, 2], rho[3, 1], rho[3, 2]])
    assert en.leakage_weight(rho) == pytest.approx(2.0 * np.sum(np.abs(corners) ** 2))


def test_parity_models():
    model = en.parity_model(0.7)
    assert model.dim == 4
    (chan,) = model.channels
    assert np.allclose(chan.op, en.ZZ)
    assert chan.rate == pytest.approx(1.4)
    assert chan.efficiency == 1.0

    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            en.parity_model(bad)


def test_parity_models_are_cached_per_k():
    assert en.parity_model(0.7) is en.parity_model(0.7)
    assert en.parity_model(0.7) is not en.parity_model(0.8)
    for bad in (0.0, -1.0):  # a failed call caches nothing
        with pytest.raises(ValueError):
            en.parity_model(bad)
        with pytest.raises(ValueError):
            en.parity_model(bad)


@pytest.mark.parametrize("block", ["plus", "minus"])
def test_block_states_are_exact_fixed_points(block):
    rho2 = random_density(np.random.default_rng(5), 2)
    rho = embed_block(rho2, block)
    for dw in (0.0, 0.037, -0.41):
        out = en.two_qubit_sme_step(rho, 1.0, 1e-3, dw)
        assert np.max(np.abs(out - rho)) <= 1e-14


def test_inter_block_coherence_decays_at_four_k():
    # |0>|+> carries a pure inter-block coherence rho_01 = 1/2; with the
    # noise frozen the Euler step shrinks it by exactly (1 - 4 k dt)
    k, dt = 0.8, 1e-3
    rho = st.density(np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0))
    out = en.two_qubit_sme_step(rho, k, dt, 0.0)
    assert out[0, 1] == pytest.approx(0.5 * (1.0 - 4.0 * k * dt), rel=1e-12)
    assert np.allclose(np.diag(out), np.diag(rho), atol=1e-15)


def test_q1_rotation_matrix():
    beta = 0.83
    expect = math.cos(0.5 * beta) * np.eye(4) - 1j * math.sin(0.5 * beta) * en.IX
    u = en.q1_rotation(beta)
    assert np.allclose(u, expect)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-14)
    rx = math.cos(0.5 * beta) * st.SI - 1j * math.sin(0.5 * beta) * st.SX
    assert np.allclose(u, st.tensor_product(st.SI, rx))


def test_q2_rotation_matrix():
    # Rz(beta) x I = exp(-i beta ZI / 2), q2's own rotation: on D- it is the
    # pair Rz(beta/2) x Rz(-beta/2), on D+ it turns the corners too
    beta = 1.21
    u = en.q2_rotation(beta)
    phase = np.exp(-0.5j * beta)
    assert np.allclose(u, np.diag([phase, phase, np.conj(phase), np.conj(phase)]))
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-14)
    rz = lambda a: np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])
    assert np.allclose(u, st.tensor_product(rz(beta), st.SI))
    minus = [1, 2]
    pair = st.tensor_product(rz(0.5 * beta), rz(-0.5 * beta))
    assert np.allclose(u[np.ix_(minus, minus)], pair[np.ix_(minus, minus)])


def test_q1_rotation_turns_which_block_vector():
    rho = random_density(np.random.default_rng(17), 4)
    x0, y0, z0 = en.which_block_vector(rho)
    beta = 0.77
    u = en.q1_rotation(beta)
    x1, y1, z1 = en.which_block_vector(u @ rho @ u.conj().T)
    assert x1 == pytest.approx(x0, abs=1e-12)
    assert y1 == pytest.approx(y0 * math.cos(beta) - z0 * math.sin(beta), abs=1e-12)
    assert z1 == pytest.approx(y0 * math.sin(beta) + z0 * math.cos(beta), abs=1e-12)


def test_q2_rotation_turns_minus_block_only():
    rho = random_density(np.random.default_rng(19), 4)
    beta = -0.58
    u = en.q2_rotation(beta)
    rotated = u @ rho @ u.conj().T
    x0, y0, z0, w0 = en.block_components(rho, "minus")
    x1, y1, z1, w1 = en.block_components(rotated, "minus")
    assert x1 == pytest.approx(x0 * math.cos(beta) - y0 * math.sin(beta), abs=1e-12)
    assert y1 == pytest.approx(x0 * math.sin(beta) + y0 * math.cos(beta), abs=1e-12)
    assert z1 == pytest.approx(z0, abs=1e-12)
    assert w1 == pytest.approx(w0, abs=1e-12)
    # it turns the D+ qubit by the same angle, so a product q1 x q2 stays a
    # product, and it leaves the which-block qubit alone
    x0, y0, z0, w0 = en.block_components(rho, "plus")
    x1, y1, z1, w1 = en.block_components(rotated, "plus")
    assert np.allclose([x1, y1, z1, w1], [x0 * math.cos(beta) - y0 * math.sin(beta),
                                          x0 * math.sin(beta) + y0 * math.cos(beta), z0, w0],
                       atol=1e-12)
    assert np.allclose(en.which_block_vector(rotated), en.which_block_vector(rho), atol=1e-12)


def test_feedback_angles():
    rng = np.random.default_rng(23)
    for _ in range(20):
        y, z = rng.normal(size=2)
        r = math.hypot(y, z)

        beta = en.equator_hold_angle(y, z)
        assert abs(beta) <= 0.5 * math.pi + 1e-12
        z_new = y * math.sin(beta) + z * math.cos(beta)
        assert abs(z_new) <= 1e-12 * max(1.0, r)

        beta = en.align_down_angle(y, z)
        y_new = y * math.cos(beta) - z * math.sin(beta)
        z_new = y * math.sin(beta) + z * math.cos(beta)
        assert y_new == pytest.approx(0.0, abs=1e-12 * max(1.0, r))
        assert z_new == pytest.approx(-r, abs=1e-12 * max(1.0, r))

        x, y = rng.normal(size=2)
        r = math.hypot(x, y)

        beta = en.phase_hold_angle(x, y)
        assert abs(beta) <= 0.5 * math.pi + 1e-12
        x_new = x * math.cos(beta) - y * math.sin(beta)
        assert abs(x_new) <= 1e-12 * max(1.0, r)

        beta = en.azimuth_align_angle(x, y)
        x_new = x * math.cos(beta) - y * math.sin(beta)
        y_new = x * math.sin(beta) + y * math.cos(beta)
        assert x_new == pytest.approx(r, abs=1e-12 * max(1.0, r))
        assert y_new == pytest.approx(0.0, abs=1e-12 * max(1.0, r))


def test_clip_psd():
    u = random_unitary(np.random.default_rng(29), 4)
    vals = np.array([1.05, -0.05, 0.0, 0.0])
    rho = (u * vals) @ u.conj().T
    clipped = en.clip_psd(rho)
    out_vals = np.linalg.eigvalsh(clipped)
    assert out_vals.min() >= -1e-15
    assert np.trace(clipped).real == pytest.approx(1.0)
    expect = (u * np.array([1.0, 0.0, 0.0, 0.0])) @ u.conj().T
    assert np.allclose(clipped, expect, atol=1e-12)

    with pytest.raises(ValueError):
        en.clip_psd(np.diag([-1.0, 0.0, 0.0, 0.0]).astype(complex))


def test_r_squared_and_equator_purity():
    assert en._r_squared(np.eye(4) / 4.0) == pytest.approx(0.0, abs=1e-15)
    assert en._r_squared(en.BELL_TARGET) == pytest.approx(3.0)
    assert en._r_squared(st.density(np.array([1.0, 0, 0, 0]))) == pytest.approx(3.0)

    rho = random_density(np.random.default_rng(31), 4)
    a = random_unitary(np.random.default_rng(32), 2)
    b = random_unitary(np.random.default_rng(33), 2)
    u = st.tensor_product(a, b)
    assert abs(en._r_squared(u @ rho @ u.conj().T) - en._r_squared(rho)) < 1e-10

    assert en._q2_equator_purity(en.BELL_TARGET) == pytest.approx(1.0)
    assert en._q2_equator_purity(np.eye(4) / 4.0) == pytest.approx(0.5)
    ket01 = np.zeros(4)
    ket01[1] = 1.0
    assert en._q2_equator_purity(st.density(ket01)) == pytest.approx(0.5)


def test_protocol_at_target_returns_immediately():
    res = en.entangle_protocol(en.BELL_TARGET, 1.0, 1e-3, 10.0, seed=0)
    assert res.final_fidelity > 1.0 - 1e-9
    assert res.dfs_time is None
    assert len(res.times) == 1
    assert res.times[0] == 0.0
    assert np.allclose(res.final_state, en.BELL_TARGET, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_protocol_from_maximally_mixed(seed):
    res = en.entangle_protocol(np.eye(4) / 4.0, 1.0, 1e-3, 10.0, seed=seed)
    assert res.final_fidelity >= 0.99
    assert res.bell_fidelity[-1] == pytest.approx(res.final_fidelity)
    assert res.final_fidelity == pytest.approx(en.bell_fidelity(res.final_state))

    assert res.dfs_time is not None
    assert 0.0 < res.dfs_time <= 10.0

    assert np.all(np.diff(res.times) > 0)
    assert res.r_squared.max() <= 3.0 + 1e-9
    assert res.r_squared[-1] > 2.9
    assert res.r_squared[0] == pytest.approx(0.0, abs=1e-12)

    # stage one holds the which-block qubit on its equator
    stage1 = res.times < res.dfs_time
    stage1[0] = False  # the t = 0 row precedes the first hold rotation
    assert np.all(np.abs(res.q1_z[stage1]) < 1e-8)

    # the accepted state sits in the minus block for the rest of the run
    assert res.leakage[-1] <= 1e-3
    rho = res.final_state
    assert en.leakage_weight(rho) <= 2e-3
    assert (rho[1, 1] + rho[2, 2]).real >= 1.0 - 2e-3

    # the filter and the rotations keep the state positive
    tail = np.linalg.eigvalsh(0.5 * (res.final_state + res.final_state.conj().T))
    assert tail.min() >= -1e-12


def test_protocol_is_reproducible():
    a = en.entangle_protocol(np.eye(4) / 4.0, 1.0, 1e-3, 10.0, seed=4)
    b = en.entangle_protocol(np.eye(4) / 4.0, 1.0, 1e-3, 10.0, seed=4)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.bell_fidelity, b.bell_fidelity)
    assert np.array_equal(a.final_state, b.final_state)
    c = en.entangle_protocol(np.eye(4) / 4.0, 1.0, 1e-3, 10.0, seed=5)
    assert not np.array_equal(a.bell_fidelity, c.bell_fidelity)


def test_protocol_keeps_which_block_vector_in_the_ball():
    res = en.entangle_protocol(np.eye(4) / 4.0, 1.0, 1e-3, 10.0, seed=31)
    assert np.all(np.abs(res.q1_z) <= 1.0 + 1e-9), res.q1_z.min()


def test_protocol_budget_error_carries_partial_result():
    with pytest.raises(en.ProtocolBudgetError) as info:
        en.entangle_protocol(np.eye(4) / 4.0, 1.0, 1e-3, 0.01, seed=0)
    res = info.value.result
    assert len(res.times) >= 1
    assert len(res.r_squared) == len(res.times)
    assert res.final_fidelity < 0.9
    assert "horizon" in str(info.value)


def test_protocol_input_guards():
    rho = np.eye(4) / 4.0
    with pytest.raises(ValueError):
        en.entangle_protocol(rho, 0.0, 1e-3, 1.0, seed=0)
    with pytest.raises(ValueError):
        en.entangle_protocol(rho, 1.0, 0.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        en.entangle_protocol(rho, 1.0, 2e-3, 1.0, seed=0)
    with pytest.raises(ValueError):
        en.entangle_protocol(rho, 1.0, 1e-3, 0.0, seed=0)
    with pytest.raises(ValueError):
        en.entangle_protocol(rho, 1.0, 1e-3, 1.0, seed=0, sample_every=0)
    with pytest.raises(ValueError):
        en.entangle_protocol(np.eye(2) / 2.0, 1.0, 1e-3, 1.0, seed=0)
    with pytest.raises(ValueError):
        en.entangle_protocol(np.eye(4), 1.0, 1e-3, 1.0, seed=0)


def matrix_protocol(rho0, k, dt, horizon, seed, q1_threshold=0.999,
                    leakage_threshold=1e-3, purity_threshold=0.995,
                    sample_every=10, eigenvalues=None):
    """entangle_protocol's loop written on 4 x 4 matrices with the matrix
    helpers: the reference its coefficient loop is checked against.  A step
    is the Kraus filter M rho M / tr, M = exp(sqrt(2k) dY c), then the hold
    rotation; eigenvalues, if given, collects the smallest eigenvalue of
    the state after every step."""
    rho = st.check_density(rho0)
    root = math.sqrt(2.0 * k)
    n_max = int(round(horizon / dt))
    dws = RngStream(seed, 0).wiener(dt, n_max)
    rows = []

    def sample(t):
        if rows and rows[-1][0] == t:
            rows.pop()
        rows.append((t, en._r_squared(rho), en.leakage_weight(rho),
                     en.which_block_vector(rho)[2], en._q2_equator_purity(rho),
                     en.bell_fidelity(rho)))

    def package():
        cols = [np.array(c) for c in zip(*rows)]
        return en.ProtocolResult(*cols, dfs_time=dfs_time, final_state=rho.copy(),
                                 final_fidelity=en.bell_fidelity(rho))

    stage, dfs_time = 1, None
    sample(0.0)
    for step in range(n_max + 1):
        t = step * dt
        if stage == 1:
            q1 = en.which_block_vector(rho)
            if float(np.linalg.norm(q1)) >= q1_threshold:
                u = en.q1_rotation(en.align_down_angle(q1[1], q1[2]))
                candidate = u @ rho @ u.conj().T
                if en.leakage_weight(candidate) <= leakage_threshold:
                    rho, stage = candidate, 2
                    dfs_time = t if step > 0 else None
                    sample(t)
        if stage == 2 and en._q2_equator_purity(rho) >= purity_threshold:
            x, y, _, _ = en.block_components(rho, "minus")
            u = en.q2_rotation(en.azimuth_align_angle(x, y))
            rho = u @ rho @ u.conj().T
            sample(t)
            return package()
        if step == n_max:
            break
        c = en.ZZ if stage == 1 else en.XX
        dy = dws[step] + 2.0 * root * np.trace(c @ rho).real * dt
        m = math.cosh(root * dy) * np.eye(4) + math.sinh(root * dy) * c
        rho = m @ rho @ m
        rho /= np.trace(rho).real
        if stage == 1:
            q1 = en.which_block_vector(rho)
            u = en.q1_rotation(en.equator_hold_angle(q1[1], q1[2]))
        else:
            x, y, _, _ = en.block_components(rho, "minus")
            u = en.q2_rotation(en.phase_hold_angle(x, y))
        rho = u @ rho @ u.conj().T
        if eigenvalues is not None:
            eigenvalues.append(np.linalg.eigvalsh(rho).min())
        if (step + 1) % sample_every == 0:
            sample((step + 1) * dt)
    raise en.ProtocolBudgetError("horizon", package())


def run_both(rho0, horizon, seed, reference=matrix_protocol, sample_every=10, k=1.0, dt=1e-3):
    out = []
    for run in (en.entangle_protocol, reference):
        try:
            out.append((run(rho0, k, dt, horizon, seed, sample_every=sample_every), False))
        except en.ProtocolBudgetError as err:
            out.append((err.result, True))
    return out


MIXED = np.eye(4, dtype=complex) / 4.0


@pytest.mark.parametrize("rho0, horizon, seed", [
    (MIXED, 10.0, 0), (MIXED, 10.0, 1), (MIXED, 10.0, 2),
    (MIXED, 10.0, 31),  # left the physical set under the Euler step
    (random_density(np.random.default_rng(41), 4), 10.0, 41),
    (random_density(np.random.default_rng(42), 4), 10.0, 42),
    (MIXED, 0.01, 0),  # budget error with a partial result
])
def test_coordinate_loop_matches_matrix_loop(rho0, horizon, seed):
    (res, failed), (ref, ref_failed) = run_both(rho0, horizon, seed)
    assert failed == ref_failed
    assert np.array_equal(res.times, ref.times)
    assert res.dfs_time == ref.dfs_time
    for name in ("r_squared", "leakage", "q1_z", "q2_purity", "bell_fidelity",
                 "final_state", "final_fidelity"):
        assert np.max(np.abs(getattr(res, name) - getattr(ref, name))) <= 1e-12, name


def test_protocol_stays_positive_at_every_step():
    # seed 31 drove the Euler step out of the physical set from t = 0.809 on;
    # every step of the loop reads as a Kraus matrix step that stays positive
    eigenvalues = []
    ref = matrix_protocol(MIXED, 1.0, 1e-3, 10.0, 31, sample_every=1,
                          eigenvalues=eigenvalues)
    res = en.entangle_protocol(MIXED, 1.0, 1e-3, 10.0, seed=31, sample_every=1)
    assert len(eigenvalues) == len(res.times) - 1 == round(res.times[-1] / 1e-3)
    assert min(eigenvalues) >= -1e-12, min(eigenvalues)
    for name in ("r_squared", "q1_z", "q2_purity", "bell_fidelity"):
        assert np.max(np.abs(getattr(res, name) - getattr(ref, name))) <= 1e-12, name
    assert res.r_squared.max() <= 3.0 + 1e-12
    assert np.abs(res.q1_z).max() <= 1.0 + 1e-12


def test_protocol_converges_to_the_continuum_times():
    # with the hold on, 1 - |q1|^2 = exp(-8kt) in the continuum, and so is the
    # D- qubit's equatorial impurity in stage two: stage one ends at
    # ln(1 / (1 - 0.999^2)) / 8k and stage two ln(100) / 8k later
    k, dt = 1.0, 1e-4
    t_dfs = math.log(1.0 / (1.0 - 0.999 ** 2)) / (8.0 * k)
    t_end = t_dfs + math.log(100.0) / (8.0 * k)
    runs = [en.entangle_protocol(MIXED, k, dt, 10.0, seed=seed) for seed in range(30)]
    assert abs(np.mean([res.dfs_time for res in runs]) - t_dfs) <= 0.01
    assert abs(np.mean([res.times[-1] for res in runs]) - t_end) <= 0.01


def test_loop_draws_through_the_module_rng_stream(monkeypatch):
    class NanStream:
        def __init__(self, seed, stream_id):
            pass

        def wiener(self, dt, size):
            return np.full(size, np.nan)

    monkeypatch.setattr(en, "RngStream", NanStream)
    with pytest.raises(IntegrationError):
        en.entangle_protocol(MIXED, 1.0, 1e-3, 1.0, seed=0)


RESULT_FIELDS = ("times", "r_squared", "leakage", "q1_z", "q2_purity", "bell_fidelity",
                 "final_state", "final_fidelity", "dfs_time")


def test_block_size_of_the_draws_is_invisible(monkeypatch):
    # seed 31 runs 1465 steps, across the edge of the first block
    whole = en.entangle_protocol(MIXED, 1.0, 1e-3, 10.0, seed=31)
    monkeypatch.setattr(en, "_WIENER_BLOCK", 7)
    blocks = en.entangle_protocol(MIXED, 1.0, 1e-3, 10.0, seed=31)
    for name in RESULT_FIELDS:
        assert np.array_equal(getattr(blocks, name), getattr(whole, name)), name


def test_long_horizon_draws_only_what_it_steps():
    # 1e6 increments up front would take 8 MB; the run ends after 1336 steps
    tracemalloc.start()
    try:
        far = en.entangle_protocol(MIXED, 1.0, 1e-3, 1e3, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak
    near = en.entangle_protocol(MIXED, 1.0, 1e-3, 10.0, seed=3)
    for name in RESULT_FIELDS:
        assert np.array_equal(getattr(far, name), getattr(near, name)), name


def test_coefficient_maps_match_the_matrix_helpers():
    rng = np.random.default_rng(43)
    for _ in range(20):
        beta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        rho = random_density(rng, 4)
        r = en._coefficients(rho)
        back = np.einsum("ab,abij->ij", r.reshape(4, 4), en._PRODUCTS) / 4.0
        assert np.max(np.abs(back - rho)) <= 1e-15
        expect = (en._r_squared(rho), en.leakage_weight(rho), en.which_block_vector(rho)[2],
                  en._q2_equator_purity(rho), en.bell_fidelity(rho))
        assert np.max(np.abs(np.array(en._reads(r)) - expect)) <= 1e-14
        for pairs, make in ((en._ROWS_YZ, en.q1_rotation), (en._COLS_XY, en.q2_rotation)):
            u = make(beta)
            expect = en._coefficients(u @ rho @ u.conj().T)
            assert np.max(np.abs(np.array(en._turn(r, pairs, beta)) - expect)) <= 1e-14
        # the filter of each monitor: (cosh s, sinh s) on its pair of rows or
        # columns is M rho M up to the trace, M = exp(s c / 2)
        s = rng.normal()
        for pairs, c in ((ROWS_0Z, en.ZZ), (COLS_0X, en.XX)):
            m = math.cosh(0.5 * s) * np.eye(4) + math.sinh(0.5 * s) * c
            ch, sh = math.cosh(s), math.sinh(s)
            expect = en._coefficients(m @ rho @ m)
            assert np.max(np.abs(np.array(mix(r, pairs, ch, sh, sh, ch)) - expect)) <= 1e-13


# Index pairs of r that a stage moves.  Stage one: the filter of S_z mixes
# rows (0, z), the hold exp(-i beta S_x / 2) turns rows (y, z).  Stage two:
# the filter of T_x mixes columns (0, x), exp(-i beta T_z / 2) turns (x, y).
ROWS_0Z = [(b, 12 + b) for b in range(4)]
ROWS_YZ = [(8 + b, 12 + b) for b in range(4)]
COLS_0X = [(4 * a, 4 * a + 1) for a in range(4)]
COLS_XY = [(4 * a + 1, 4 * a + 2) for a in range(4)]


def mix(r, pairs, a, b, c, d):
    """Copy of r with each (i, j) of pairs sent to (a r_i + b r_j, c r_i + d r_j)."""
    r = list(r)
    for i, j in pairs:
        r[i], r[j] = a * r[i] + b * r[j], c * r[i] + d * r[j]
    return r


def turn(r, pairs, beta):
    c, s = math.cos(beta), math.sin(beta)
    return mix(r, pairs, c, -s, s, c)


def pairwise_protocol(rho0, k, dt, horizon, seed, sample_every=10):
    """entangle_protocol's loop on generic pair lists: each step mixes the
    monitored pairs, divides by r_00 and turns the held pairs, each through
    a list.  The bit-exact reference of its straight-line stages."""
    # (filtered pairs, index of <c>, held pairs, hold angle) per stage
    stages = {1: (ROWS_0Z, 12, ROWS_YZ, lambda r: en.equator_hold_angle(r[8], r[12])),
              2: (COLS_0X, 1, COLS_XY, lambda r: en.phase_hold_angle(r[1] - r[13], r[2] - r[14]))}
    root = 2.0 * math.sqrt(2.0 * k)
    n_max = int(round(horizon / dt))
    dws = RngStream(seed, 0).wiener(dt, n_max).tolist()
    samples = {}

    def package():
        cols = np.array([en._reads(x) for x in samples.values()]).T
        final_state = np.einsum("ab,abij->ij", np.reshape(r, (4, 4)), en._PRODUCTS) / 4.0
        return en.ProtocolResult(np.array(list(samples)), *cols, dfs_time=dfs_time,
                                 final_state=final_state,
                                 final_fidelity=en.bell_fidelity(final_state))

    stage, dfs_time = 1, None
    samples[0.0] = r = en._coefficients(st.check_density(rho0)).tolist()
    for step in range(n_max + 1):
        t = step * dt
        if stage == 1 and math.hypot(r[4], r[8], r[12]) >= 0.999:
            candidate = turn(r, ROWS_YZ, en.align_down_angle(r[8], r[12]))
            if en._leakage(candidate) <= 1e-3:
                samples[t] = r = candidate
                stage = 2
                dfs_time = t if step > 0 else None
        if stage == 2:
            x, y, z, w = en._minus(r)
            if en._equator_purity(x, y, z, w) >= 0.995:
                samples[t] = r = turn(r, COLS_XY, en.azimuth_align_angle(x, y))
                return package()
        if step == n_max:
            break
        filtered, mean, held, hold = stages[stage]
        s = root * (dws[step] + root * r[mean] * dt)
        ch, sh = math.cosh(s), math.sinh(s)
        r = mix(r, filtered, ch, sh, sh, ch)
        tr = r[0]
        r = [v / tr for v in r]
        r = turn(r, held, hold(r))
        if (step + 1) % sample_every == 0:
            samples[(step + 1) * dt] = r
    raise en.ProtocolBudgetError("horizon", package())


@pytest.mark.parametrize("rho0, horizon, seed, sample_every", [
    *[(MIXED, 10.0, seed, 10) for seed in range(30)],
    (random_density(np.random.default_rng(41), 4), 10.0, 41, 1),
    (random_density(np.random.default_rng(42), 4), 10.0, 42, 1),
    (MIXED, 0.01, 0, 10),  # budget error with a partial result
    # |00><00| lies in D+: rotated onto D- at t = 0, superseding its first row
    (np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), 10.0, 5, 1),
])
def test_protocol_matches_the_pairwise_loop_bit_for_bit(rho0, horizon, seed, sample_every):
    assert_matches_pairwise(rho0, horizon, seed, sample_every)


def test_protocol_matches_the_pairwise_loop_at_another_k_and_dt():
    assert_matches_pairwise(MIXED, 10.0, 47, 1, k=0.5, dt=2e-3)


def assert_matches_pairwise(rho0, horizon, seed, sample_every, k=1.0, dt=1e-3):
    (res, failed), (ref, ref_failed) = run_both(rho0, horizon, seed, pairwise_protocol,
                                                sample_every, k, dt)
    assert failed == ref_failed
    for name in RESULT_FIELDS:
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name


def test_reads_of_all_rows_equal_the_reads_of_each_row():
    # package() reads every sampled row at once; each read must be the
    # per-row read to the bit, -0.0 included, and a weightless D- (w = 0,
    # r_00 = r_z0) must read 0.5 without a division warning
    rng = np.random.default_rng(44)
    rows = [en._coefficients(random_density(rng, 4)).tolist() for _ in range(20)]
    rows += [[0.0] * 16, [-0.0] * 16, [1.0] + [0.0] * 11 + [1.0, 0.0, 0.0, 0.0],
             [1.0, -0.0, 0.5, -0.0, 0.0, -0.0, 0.0, 0.0, 0.25, 0.0, -0.0, 0.0, 1.0, 0.5, 0.0, -0.0]]
    for row in rows[:5]:
        rows.append([-0.0 if i % 3 == 0 else v for i, v in enumerate(row)])
    every = en._reads(np.array(rows).T)
    each = np.array([[float(v) for v in en._reads(row)] for row in rows]).T
    assert np.array_equal(np.array(every).view(np.int64), each.view(np.int64))
    assert np.array_equal(every[3][-9:-5], [0.5, 0.5, 0.5, 0.5])
