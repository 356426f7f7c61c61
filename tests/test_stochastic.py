"""Random streams, Wiener increments, and the fixed-order ensemble reducer."""

import tracemalloc

import numpy as np
import pytest

import qfc.stochastic as stochastic
from qfc.stochastic import (MAX_CHUNK_FLOATS, EnsembleStats, RngStream, chunk_floats,
                            ito_quadratic_variation, run_ensemble, sech)


def test_stream_reproducibility():
    a = RngStream(42, 7).wiener(1.0, 100)
    b = RngStream(42, 7).wiener(1.0, 100)
    assert np.array_equal(a, b)
    c = RngStream(42, 8).wiener(1.0, 100)
    assert not np.array_equal(a, c)
    d = RngStream(43, 7).wiener(1.0, 100)
    assert not np.array_equal(a, d)


def test_stream_guards():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)
    with pytest.raises(ValueError):
        RngStream(0).wiener(0.0)
    with pytest.raises(ValueError):
        RngStream(0).wiener([0.1, 0.0])


def test_rekey_draws_like_a_fresh_stream():
    stream = RngStream(9, 4)
    stream.uniform()
    stream.wiener(0.3, 5)
    for i in (0, 1, 2**64 - 1):
        stream.rekey(i)
        fresh = RngStream(9, i)
        assert stream.stream_id == i
        assert stream.uniform() == fresh.uniform()
        assert np.array_equal(stream.wiener([0.1, 0.2, 0.3]), fresh.wiener([0.1, 0.2, 0.3]))
    key = np.array([9, 7], dtype=np.uint64)
    assert np.array_equal(RngStream(9, 7).wiener(1.0, 8),
                          np.random.Generator(np.random.Philox(key=key)).normal(size=8))
    with pytest.raises(ValueError):
        stream.rekey(-1)


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


def test_wiener_takes_one_variance_per_increment():
    taus = np.array([0.01, 0.04, 0.01])
    got = RngStream(6, 2).wiener(taus)
    gen = RngStream(6, 2).gen
    assert np.array_equal(got, [gen.normal(0.0, np.sqrt(tau)) for tau in taus])
    assert np.array_equal(RngStream(6, 2).wiener(np.full(3, 0.01)),
                          RngStream(6, 2).wiener(0.01, 3))


def test_sech_is_finite_and_exact():
    x = np.array([0.0, 0.3, -2.0, 40.0, -800.0])
    assert np.allclose(sech(x[:4]), 1.0 / np.cosh(x[:4]), rtol=1e-15, atol=0.0)
    assert sech(x)[-1] == 0.0


def record(y, t):
    """Read of a plain record: the record itself."""
    return y


def path(stream, taus, mu=0.0):
    """A record at the grid points, drawn directly from the stream."""
    return np.concatenate([[0.0], np.cumsum(mu * taus + stream.wiener(taus))])


def test_run_ensemble_matches_direct_loop():
    # three chunks of 256 trajectories, the last one partial
    dt, n = 0.01, 5
    times, stats = run_ensemble(0.0, record, dt, n, 600, base_seed=5)
    direct = np.array([path(RngStream(5, i), np.full(n, dt)) for i in range(600)])
    assert np.allclose(stats.mean, direct.mean(axis=0))
    assert np.allclose(stats.var, direct.var(axis=0))
    assert isinstance(stats, EnsembleStats)
    assert stats.sem.shape == times.shape == (6,)


def test_run_ensemble_draws_the_drift_first():
    # the drift is drawn from the trajectory's stream before its increments
    def drift(stream):
        return 10.0 * stream.uniform()

    _, stats = run_ensemble(drift, record, 0.5, 3, 300, base_seed=8)
    direct = [path(stream, np.full(3, 0.5), drift(stream))
              for stream in (RngStream(8, i) for i in range(300))]
    assert np.allclose(stats.mean, np.mean(direct, axis=0), rtol=1e-13, atol=0.0)


def test_run_ensemble_variance_of_a_large_offset():
    # E[x^2] - mean^2 loses every digit of a variance 1e-16 times the
    # squared mean; merging per-chunk deviations keeps it
    _, stats = run_ensemble(0.0, lambda y, t: 1e8 + y, 1.0, 1, 700, base_seed=3)
    direct = np.array([1e8 + RngStream(3, i).wiener(1.0, 1)[0] for i in range(700)])
    assert abs(stats.var[-1] / np.var(direct) - 1.0) < 1e-6


def test_run_ensemble_appends_final_once():
    _, plain = run_ensemble(0.0, record, 0.1, 4, 300, base_seed=2)
    _, both = run_ensemble(0.0, record, 0.1, 4, 300, base_seed=2,
                           final=lambda y, t: np.stack([y, -y], axis=1))
    assert both.mean.shape == (5 + 2,)
    assert np.array_equal(both.mean[:5], plain.mean)
    assert np.array_equal(both.mean[5:], [plain.mean[-1], -plain.mean[-1]])
    assert np.array_equal(both.var[5:], [plain.var[-1], plain.var[-1]])


def test_run_ensemble_time_grid_at_a_non_dividing_stride():
    dt, n = 0.1, 10  # samples at steps 0, 3, 6, 9; final reads step 10
    seen = []
    times, stats = run_ensemble(
        2.0, lambda y, t: seen.append(t) or y, dt, n, 1, base_seed=4, sample_every=3,
        final=lambda y, t: seen.append(t) or y[:, None])
    assert times.tolist() == [dt * s for s in (0, 3, 6, 9)]
    assert seen[0] is times and seen[1] == dt * n
    # intervals of 3, 3, 3 and the one step from 9 to 10
    direct = path(RngStream(4, 0), dt * np.array([3, 3, 3, 1]), mu=2.0)
    assert np.array_equal(stats.mean, direct)


def test_run_ensemble_names_every_bad_count():
    # sample_every was clamped (0 ran as 1, 2.5 as 2), an n_steps of 2.7
    # ran 2 steps, one of -1 raised IndexError, and an infinite dt returned
    # NaN statistics
    for n_steps, n_traj, every in ((4, 4, 0), (4, 4, 2.5), (4, 2.0, 1), (2.7, 4, 1),
                                   (-1, 4, 1)):
        with pytest.raises(ValueError):
            run_ensemble(0.0, record, 0.1, n_steps, n_traj, base_seed=1, sample_every=every)
    with pytest.raises(ValueError) as info:
        run_ensemble(0.0, record, np.inf, -1, 0, base_seed=1, sample_every=2.5)
    for name in ("dt", "n_steps", "n_traj", "sample_every"):
        assert name in str(info.value)
    times, stats = run_ensemble(0.0, record, 0.1, np.int64(4), np.int64(5), base_seed=1,
                                sample_every=np.int64(2))
    assert times.size == 3 and stats.n_traj == 5
    # step counts past numpy's int64: n_steps = 2**70 (or a stride of 2**63)
    # died in numpy with UFuncTypeError, and n_steps = 2**63 ran on a float grid
    bound = "must round to at most 2**63 - 1 steps, got"
    for n_steps, every, message in (
            (2**70, 2**70, f"n_steps {bound} {2**70}; sample_every {bound} {2**70}"),
            (2**63, 2**62, f"n_steps {bound} {2**63}"),
            (5, 2**63, f"sample_every {bound} {2**63}")):
        with pytest.raises(ValueError) as info:
            run_ensemble(1.0, record, 1.0, n_steps, 1, 0, sample_every=every)
        assert str(info.value) == message
    # the largest count runs, its grid held exactly in int64
    times, stats = run_ensemble(0.0, record, 2.0**-62, 2**63 - 1, 1, base_seed=1,
                                sample_every=2**62)
    assert times.tolist() == [0.0, 1.0] and stats.mean.size == 2


def test_run_ensemble_rejects_a_chunk_it_cannot_hold_before_allocating(monkeypatch):
    # 256 trajectories of 65537 grid points pass MAX_CHUNK_FLOATS by one row:
    # the run draws nothing, reads nothing and allocates nothing
    calls = []
    assert chunk_floats(65536, 300, 1) == 256 * 65537 > MAX_CHUNK_FLOATS
    run_ensemble(0.0, record, 0.01, 1, 1, base_seed=1)  # numpy.random's lazy imports
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            run_ensemble(calls.append, lambda y, t: calls.append(y), 0.01, 65536, 300,
                         base_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == ("min(n_traj, 256) x (ceil(n_steps/sample_every) + 1) must be at"
                               f" most {2**24}, got {256 * 65537}")
    assert not calls and peak < 2**16, peak
    # the chunk is min(n_traj, 256) rows of the grid points and the last
    # step: steps 0, 2, ..., 8 and 9 for 9 steps at stride 2
    monkeypatch.setattr(stochastic, "MAX_CHUNK_FLOATS", 6 * 256)
    for n_traj in (1, 256, 257, 300):
        run_ensemble(0.0, record, 0.1, 9, n_traj, base_seed=1, sample_every=2)
    run_ensemble(0.0, record, 0.1, 6 * 256 - 1, 1, base_seed=1)
    for n_steps, n_traj, every in ((11, 300, 2), (10, 300, 1), (6 * 256, 1, 1)):
        with pytest.raises(ValueError, match=f"must be at most {6 * 256}, got"):
            run_ensemble(0.0, record, 0.1, n_steps, n_traj, base_seed=1, sample_every=every)
    # named together with a bad dt
    with pytest.raises(ValueError, match="dt must be positive.*must be at most"):
        run_ensemble(0.0, record, -1.0, 11, 300, base_seed=1, sample_every=2)


@pytest.mark.parametrize("drift", [1.5, lambda stream: 10.0 * stream.uniform()],
                         ids=["constant", "uniform"])
def test_run_ensemble_records_are_the_fresh_streams(drift):
    # the one rekeyed stream gives trajectory i exactly the record that a
    # fresh RngStream(seed, i) draws, on both sides of the 256-trajectory
    # chunk edge
    dt, n_traj = 0.01, 300
    chunks = []
    times, _ = run_ensemble(drift, lambda y, t: chunks.append(y.copy()) or y, dt, 9,
                            n_traj, base_seed=11, sample_every=2)
    assert [len(c) for c in chunks] == [256, 44]
    records = np.concatenate(chunks)
    taus = dt * np.array([2, 2, 2, 2, 1])
    for i in (0, 255, 256, n_traj - 1):
        stream = RngStream(11, i)
        mu = drift(stream) if callable(drift) else drift
        assert np.array_equal(records[i], path(stream, taus, mu)[:len(times)]), i


@pytest.mark.parametrize("drift", [1.5, lambda stream: 10.0 * stream.uniform()],
                         ids=["constant", "uniform"])
def test_run_ensemble_memory_stays_near_one_record_array(drift):
    # one 256-trajectory chunk of 200 intervals holds its records, the
    # reduction's deviations and at most one more chunk-sized temporary
    n_traj, n_steps = 256, 200
    size = n_traj * (n_steps + 1) * 8
    run_ensemble(drift, record, 0.01, 1, 1, base_seed=1)  # numpy.random's lazy imports
    tracemalloc.start()
    try:
        run_ensemble(drift, record, 0.01, n_steps, n_traj, base_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * size, peak / size
