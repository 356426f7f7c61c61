"""Random streams, Wiener increments, and the fixed-order ensemble reducer."""

import numpy as np
import pytest

from qfc.stochastic import (EnsembleStats, RngStream, ito_quadratic_variation,
                            run_ensemble, wiener_steps)


def test_stream_reproducibility():
    a = RngStream(42, 7).normal(size=100)
    b = RngStream(42, 7).normal(size=100)
    assert np.array_equal(a, b)
    c = RngStream(42, 8).normal(size=100)
    assert not np.array_equal(a, c)
    d = RngStream(43, 7).normal(size=100)
    assert not np.array_equal(a, d)


def test_stream_guards():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)
    with pytest.raises(ValueError):
        RngStream(0).wiener(0.0)


def test_wiener_moments():
    dt = 0.01
    xs = RngStream(1).wiener(dt, 200_000)
    assert abs(xs.mean()) < 3.0 * np.sqrt(dt / xs.size)
    assert abs(xs.var() - dt) < 3.0 * dt * np.sqrt(2.0 / xs.size)


def test_quadratic_variation_concentrates():
    qv = ito_quadratic_variation(RngStream(3), 1.0, 100_000)
    assert abs(qv - 1.0) < 3.0 * np.sqrt(2.0 / 100_000)
    with pytest.raises(ValueError):
        ito_quadratic_variation(RngStream(3), -1.0, 10)


def walk(x, dw):
    """Advance for a plain Wiener path: each row adds its increment."""
    return x + dw[:, None]


def first(x):
    return x[:, 0]


def test_run_ensemble_matches_direct_loop():
    dt, n = 0.01, 5
    times, stats = run_ensemble([0.0], walk, first, dt, n, 100, base_seed=5,
                                chunk=16)
    direct = np.array([np.concatenate([[0.0], RngStream(5, i).wiener(dt, n).cumsum()])
                       for i in range(100)])
    assert np.allclose(stats.mean, direct.mean(axis=0))
    assert np.allclose(stats.var, direct.var(axis=0))
    assert isinstance(stats, EnsembleStats)
    assert stats.sem.shape == times.shape == (6,)


def test_run_ensemble_thread_count_is_invisible():
    def run(threads):
        return run_ensemble([1.0, 2.0], lambda x, dw: x * (1.0 + dw[:, None]),
                            lambda x: x, 0.1, 8, 333, base_seed=9, chunk=10,
                            threads=threads)[1]

    one, many = run(1), run(7)
    assert np.array_equal(one.mean, many.mean)
    assert np.array_equal(one.var, many.var)


def test_run_ensemble_variance_of_a_large_offset():
    # E[x^2] - mean^2 loses every digit of a variance 1e-16 times the
    # squared mean; merging per-chunk deviations keeps it
    _, stats = run_ensemble([1e8], walk, first, 1.0, 1, 200, base_seed=3, chunk=7)
    direct = np.array([1e8 + RngStream(3, i).wiener(1.0, 1)[0] for i in range(200)])
    assert abs(stats.var[-1] / np.var(direct) - 1.0) < 1e-6


def test_run_ensemble_appends_final_once():
    _, plain = run_ensemble([0.0], walk, first, 0.1, 4, 50, base_seed=2, chunk=8)
    _, both = run_ensemble([0.0], walk, first, 0.1, 4, 50, base_seed=2, chunk=8,
                           final=lambda x: np.hstack([x, -x]))
    assert both.mean.shape == (5 + 2,)
    assert np.array_equal(both.mean[:5], plain.mean)
    assert np.array_equal(both.mean[5:], [plain.mean[-1], -plain.mean[-1]])
    assert np.array_equal(both.var[5:], [plain.var[-1], plain.var[-1]])


def test_run_ensemble_time_grid_at_a_non_dividing_stride():
    dt, n = 0.1, 10  # samples at steps 0, 3, 6, 9; step 10 is not recorded
    times, stats = run_ensemble([0.0], walk, first, dt, n, 1, base_seed=4,
                                sample_every=3)
    assert times.tolist() == [dt * s for s in (0, 3, 6, 9)]
    path = np.concatenate([[0.0], RngStream(4, 0).wiener(dt, n).cumsum()])
    assert np.allclose(stats.mean, path[[0, 3, 6, 9]])


def test_wiener_steps_match_one_block_draw():
    streams = [RngStream(4, i) for i in range(3)]
    rows = np.array(list(wiener_steps(streams, 1e-3, 2500)))  # 1000-step blocks
    direct = np.array([RngStream(4, i).wiener(1e-3, 2500) for i in range(3)]).T
    assert np.array_equal(rows, direct)
