"""Tests for the parity-measurement entanglement protocol."""

import math

import numpy as np
import pytest

from conftest import random_density, random_unitary

import qfc.entanglement as en
import qfc.states as st
from qfc.sme import sme_step


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


def test_dfs_membership():
    dec = en.dfs_membership(st.density(st.bell_state("psi-")))
    assert dec.member == "minus"
    assert dec.minus_weight == pytest.approx(1.0)
    assert dec.plus_weight == pytest.approx(0.0, abs=1e-15)

    ket00 = np.zeros(4)
    ket00[0] = 1.0
    assert en.dfs_membership(st.density(ket00)).member == "plus"

    mixed = en.dfs_membership(np.eye(4) / 4.0)
    assert mixed.member is None
    assert mixed.plus_weight == pytest.approx(0.5)
    assert mixed.minus_weight == pytest.approx(0.5)
    assert mixed.leakage == 0.0

    # full weight split across blocks by a coherence: not a member either
    plus_x = st.density(np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0))
    dec = en.dfs_membership(plus_x)
    assert dec.member is None
    assert dec.leakage == pytest.approx(0.5)

    assert np.allclose(mixed.plus_block, np.diag([1.0, 0.0, 0.0, 1.0]))
    assert np.allclose(mixed.minus_block, np.diag([0.0, 1.0, 1.0, 0.0]))


def test_encoded_coords():
    coords = en.encoded_coords(st.density(st.bell_state("psi-")))
    assert coords.dominant == "minus"
    assert np.allclose(coords.q1, [0.0, 0.0, -1.0])
    assert np.allclose(coords.q2, [-1.0, 0.0, 0.0])

    coords = en.encoded_coords(st.density(st.bell_state("phi+")))
    assert coords.dominant == "plus"
    assert np.allclose(coords.q2, [1.0, 0.0, 0.0])

    ket00 = np.zeros(4)
    ket00[0] = 1.0
    coords = en.encoded_coords(st.density(ket00))
    assert coords.dominant == "plus"
    assert np.allclose(coords.q2, [0.0, 0.0, 1.0])

    # ties go to the minus block, the protocol target
    coords = en.encoded_coords(np.eye(4) / 4.0)
    assert coords.dominant == "minus"
    assert np.allclose(coords.q2, 0.0)


def test_parity_models():
    model = en.parity_model(0.7)
    assert model.dim == 4
    (chan,) = model.channels
    assert np.allclose(chan.op, en.ZZ)
    assert chan.rate == pytest.approx(1.4)
    assert chan.efficiency == 1.0

    toggled = en.toggled_parity_model(0.7)
    (chan,) = toggled.channels
    assert np.allclose(chan.op, en.XX)

    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            en.parity_model(bad)
        with pytest.raises(ValueError):
            en.toggled_parity_model(bad)


def test_parity_models_are_cached_per_k():
    for make in (en.parity_model, en.toggled_parity_model):
        assert make(0.7) is make(0.7)
        assert make(0.7) is not make(0.8)
        for bad in (0.0, -1.0):  # a failed call caches nothing
            with pytest.raises(ValueError):
                make(bad)
            with pytest.raises(ValueError):
                make(bad)


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


def test_hadamard_toggle():
    assert np.allclose(en.hadamard_toggle(en.ZZ), en.XX)
    assert np.allclose(en.hadamard_toggle(en.XX), en.ZZ)
    rho = random_density(np.random.default_rng(9), 4)
    assert np.allclose(en.hadamard_toggle(en.hadamard_toggle(rho)), rho)


def test_toggled_model_equals_literal_toggle():
    k, dt, dw = 1.0, 1e-3, 0.123
    rho = random_density(np.random.default_rng(13), 4)
    direct = sme_step(en.toggled_parity_model(k), rho, dt, [dw])
    toggled = en.hadamard_toggle(
        sme_step(en.parity_model(k), en.hadamard_toggle(rho), dt, [dw])
    )
    assert np.max(np.abs(direct - toggled)) <= 1e-14


def test_q1_rotation_matrix():
    beta = 0.83
    expect = math.cos(0.5 * beta) * np.eye(4) - 1j * math.sin(0.5 * beta) * en.IX
    u = en.q1_rotation(beta)
    assert np.allclose(u, expect)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-14)
    rx = math.cos(0.5 * beta) * st.SI - 1j * math.sin(0.5 * beta) * st.SX
    assert np.allclose(u, st.tensor_product(st.SI, rx))


def test_q2_rotation_matrix():
    beta = 1.21
    u = en.q2_rotation(beta)
    phase = np.exp(-0.5j * beta)
    assert np.allclose(u, np.diag([1.0, phase, np.conj(phase), 1.0]))
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-14)
    rz = lambda a: np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])
    assert np.allclose(u, st.tensor_product(rz(0.5 * beta), rz(-0.5 * beta)))


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
    # the opposite-phase pair leaves the D+ corner states alone
    assert np.allclose(en.block_components(rotated, "plus"),
                       en.block_components(rho, "plus"), atol=1e-12)


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
    assert en.dfs_membership(res.final_state, tol=2e-3).member == "minus"

    # Euler steps leave O(dt)-size negative dust; the clip only fires when
    # the purity bound itself is at risk
    tail = np.linalg.eigvalsh(0.5 * (res.final_state + res.final_state.conj().T))
    assert tail.min() >= -1e-3


def test_protocol_is_reproducible():
    a = en.entangle_protocol(np.eye(4) / 4.0, 1.0, 1e-3, 10.0, seed=4)
    b = en.entangle_protocol(np.eye(4) / 4.0, 1.0, 1e-3, 10.0, seed=4)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.bell_fidelity, b.bell_fidelity)
    assert np.array_equal(a.final_state, b.final_state)
    c = en.entangle_protocol(np.eye(4) / 4.0, 1.0, 1e-3, 10.0, seed=5)
    assert not np.array_equal(a.bell_fidelity, c.bell_fidelity)


@pytest.mark.xfail(strict=True, reason="Euler steps leave the PSD set below "
                   "the purity bound, where clip_psd never fires")
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
