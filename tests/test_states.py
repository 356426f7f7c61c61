"""States, operators, and the small linear-algebra helpers."""

import numpy as np
import pytest
from conftest import (angular_momentum_ops, partial_trace, random_density, random_pure,
                      random_unitary)

from qfc import states as st


def test_pauli_algebra():
    assert np.allclose(st.SX @ st.SY - st.SY @ st.SX, 2j * st.SZ)
    for s in (st.SX, st.SY, st.SZ):
        assert np.allclose(s @ s, st.SI)


def test_density_and_fidelity():
    rng = np.random.default_rng(3)
    psi = random_pure(rng, 3)
    rho = st.density(psi)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert abs(st.fidelity_trace(rho, rho) - 1.0) < 1e-12
    phi = random_pure(rng, 3)
    overlap = abs(np.vdot(phi, psi)) ** 2
    assert abs(st.fidelity_trace(rho, st.density(phi)) - overlap) < 1e-12


def test_bell_states():
    psi_plus = st.bell_state("psi+")
    assert np.allclose(psi_plus, [0, 1, 1, 0] / np.sqrt(2.0))
    for name in ("phi+", "phi-", "psi+", "psi-"):
        psi = st.bell_state(name)
        assert abs(np.vdot(psi, psi) - 1.0) < 1e-12
        reduced = partial_trace(st.density(psi), [2, 2], 0)
        assert np.allclose(reduced, np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        st.bell_state("psi")


def test_partial_trace_product():
    rng = np.random.default_rng(5)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    ab = st.tensor_product(a, b)
    assert np.allclose(partial_trace(ab, [2, 3], 0), a)
    assert np.allclose(partial_trace(ab, [2, 3], 1), b)


def test_check_density_guards():
    with pytest.raises(ValueError):
        st.check_density(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        st.check_density([[0.5, 0.3], [0.1, 0.5]])  # not Hermitian
    with pytest.raises(ValueError):
        st.check_density([[1.5, 0.0], [0.0, -0.5]])  # negative eigenvalue
    raw = np.array([[0.5, 0.3], [0.1, 0.5]])
    out = st.check_density(raw, raw=True)  # only the trace is enforced
    assert out.dtype == complex


def test_entropy_and_purity():
    assert abs(st.von_neumann_entropy(np.diag([1.0, 0.0]))) < 1e-12
    d = 4
    assert abs(st.von_neumann_entropy(np.eye(d) / d) - np.log(d)) < 1e-12
    rng = np.random.default_rng(11)
    rho = random_density(rng, 3)
    u = random_unitary(rng, 3)
    rotated = u @ rho @ u.conj().T
    assert abs(st.von_neumann_entropy(rotated)
               - st.von_neumann_entropy(rho)) < 1e-10


def test_angular_momentum_ops():
    for two_j in (1, 2, 5):
        fx, fy, fz = angular_momentum_ops(two_j)
        j = two_j / 2.0
        assert np.allclose(fx @ fy - fy @ fx, 1j * fz)
        casimir = fx @ fx + fy @ fy + fz @ fz
        assert np.allclose(casimir, j * (j + 1) * np.eye(two_j + 1))
        assert np.allclose(np.diag(fz).real, j - np.arange(two_j + 1))
    with pytest.raises(ValueError):
        angular_momentum_ops(0)
