"""Generalized measurement sets, sampling, and the continuous-readout Kraus form."""

import numpy as np
import pytest
from conftest import random_density

from qfc import measurement as ms
from qfc.states import SZ, dag, density, fidelity_trace, pure_state
from qfc.stochastic import RngStream


def completeness_error(mset):
    total = sum(dag(m) @ m for m in mset.operators)
    return np.max(np.abs(total - np.eye(mset.dim)))


def test_operator_set_enforces_completeness():
    good = ms.MeasurementOperatorSet([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert good.dim == 2
    with pytest.raises(ValueError):
        ms.MeasurementOperatorSet([np.diag([1.0, 0.0])])


def test_gaussian_weak_set_completeness_and_peaking():
    mset = ms.gaussian_weak_set(1.0, [2, 1, 0, -1, -2])
    assert completeness_error(mset) < 1e-9
    # post-state from the maximally mixed state: diagonal weights follow
    # exp(-k (n - m)^2 / 2) around the sampled outcome
    k = 1.0
    idx = mset.labels.index(1)
    m_op = mset.operators[idx]
    post = m_op @ (np.eye(5) / 5.0) @ dag(m_op)
    post /= np.trace(post).real
    eigs = np.array([2.0, 1.0, 0.0, -1.0, -2.0])
    expected = np.exp(-k * (eigs - 1.0) ** 2 / 2.0)
    expected /= expected.sum()
    assert np.allclose(np.diag(post).real, expected, atol=1e-9)


def test_gaussian_strong_and_weak_limits():
    strong = ms.gaussian_weak_set(50.0, [1, 0, -1])
    idx = strong.labels.index(0)
    m_op = strong.operators[idx]
    post = m_op @ (np.eye(3) / 3.0) @ dag(m_op)
    post /= np.trace(post).real
    assert post[1, 1].real > 0.999  # projector onto the sampled eigenvalue

    weak = ms.gaussian_weak_set(1e-4, [1, 0, -1])
    rho = random_density(np.random.default_rng(1), 3)
    post = sum(m @ rho @ dag(m) for m in weak.operators)
    assert fidelity_trace(post, rho) > 0.999 * fidelity_trace(rho, rho)


def test_gaussian_range_too_narrow_raises():
    with pytest.raises(ValueError):
        ms.gaussian_weak_set(0.01, [1, 0, -1], outcome_range=[-1, 0, 1])


def test_apply_measurement_projective():
    mset = ms.MeasurementOperatorSet(
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=[0, 1])
    label, post, p = ms.apply_measurement(
        density(pure_state([1.0, 0.0])), mset, RngStream(0))
    assert label == 0 and abs(p - 1.0) < 1e-12
    assert np.allclose(post, np.diag([1.0, 0.0]))

    plus = density(pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0)))
    probs = ms.outcome_probabilities(plus, mset)
    assert np.allclose(probs, [0.5, 0.5])


def test_outcome_frequencies_match_probabilities():
    mset = ms.gaussian_weak_set(2.0, [1, -1])
    rho = random_density(np.random.default_rng(2), 2)
    probs = ms.outcome_probabilities(rho, mset)
    rng = RngStream(12)
    n = 20_000
    counts = np.zeros(len(mset.operators))
    for _ in range(n):
        label, post, _ = ms.apply_measurement(rho, mset, rng)
        counts[mset.labels.index(label)] += 1
        assert abs(np.trace(post) - 1.0) < 1e-9
    freq = counts / n
    sigma = np.sqrt(np.maximum(probs * (1 - probs), 1e-12) / n)
    assert np.all(np.abs(freq - probs) < 4.0 * sigma + 1e-12)


def test_nonselective_channel_preserves_trace():
    mset = ms.gaussian_weak_set(1.0, [1, 0, -1])
    rho = random_density(np.random.default_rng(3), 3)
    out = ms.nonselective_channel(rho, mset)
    assert abs(np.trace(out) - 1.0) < 1e-9
    assert np.max(np.abs(out - dag(out))) < 1e-9


def test_continuous_kraus_readout_statistics():
    k, dt = 0.3, 0.01
    mus = np.linspace(-40.0, 40.0, 20_001)
    dmu = mus[1] - mus[0]

    def readout_density(rho):
        return np.array([
            np.trace(dag(m) @ m @ rho).real
            for m in (ms.continuous_meas_kraus(k, dt, SZ, mu) for mu in mus)
        ])

    rho = random_density(np.random.default_rng(4), 2)
    p = readout_density(rho)
    assert abs(p.sum() * dmu - 1.0) < 1e-6
    x_expect = np.trace(SZ @ rho).real
    assert abs((mus * p).sum() * dmu - x_expect) < 1e-6

    # eigenstate: Gaussian centered at the eigenvalue, variance 1/(8 k dt)
    up = density(pure_state([1.0, 0.0]))
    p_up = readout_density(up)
    mean = (mus * p_up).sum() * dmu
    var = ((mus - mean) ** 2 * p_up).sum() * dmu
    assert abs(mean - 1.0) < 1e-6
    assert abs(var - 1.0 / (8.0 * k * dt)) < 1e-3 * var

    # maximally mixed: symmetric two-Gaussian mixture at the eigenvalues
    p_mix = readout_density(np.eye(2) / 2.0)
    assert np.allclose(p_mix, p_mix[::-1], atol=1e-12)
    second = (mus ** 2 * p_mix).sum() * dmu
    assert abs(second - (1.0 + 1.0 / (8.0 * k * dt))) < 1e-3 * second
