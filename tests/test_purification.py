"""Rapid purification: conditioned Bloch dynamics and the two protocols."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from qfc import purification as pf


def test_run_guards():
    with pytest.raises(ValueError):
        pf.PurificationRun(k=-1.0, dt=1e-4, horizon=1.0)
    for dt, horizon in [(np.nan, 1.0), (np.inf, 1.0), (0.0, 1.0), (1e-4, np.nan),
                        (1e-4, np.inf)]:
        with pytest.raises(ValueError):
            pf.PurificationRun(k=1.0, dt=dt, horizon=horizon)
    # 1e310 steps: n_steps raised OverflowError ("cannot convert float
    # infinity to integer") after the run was built
    with pytest.raises(ValueError, match="horizon / dt must round to at most 2[*][*]63 - 1 steps"):
        pf.PurificationRun(k=1.0, dt=1e-300, horizon=1e10)
    run = pf.PurificationRun(k=2.0, dt=1e-4, horizon=1.0)
    assert run.n_steps == 10_000
    # the feedback law is exact, so any step is allowed
    assert pf.PurificationRun(k=1.0, dt=1e-2, horizon=1.0).n_steps == 100


FROZEN_IMPURITY = {
    # t -> ensemble-average impurity at k = 1, adaptive quadrature
    0.05: 0.3516625397561,
    0.1: 0.2593796043156,
    0.25: 0.1155091109646,
    0.5: 0.03429870439537,
    1.0: 0.003588128609078456,
    2.0: 4.910934200910e-05,
    3.0: 7.498818037655926e-07,
}


def test_nofeedback_impurity_frozen_values():
    assert pf.nofeedback_impurity(0.0, 1.0) == 0.5
    for t, expected in FROZEN_IMPURITY.items():
        got = pf.nofeedback_impurity(t, 1.0)
        assert abs(got - expected) < 1e-9 * expected + 1e-15, (t, got)
    # the curve depends on k and t only through k t
    assert abs(pf.nofeedback_impurity(0.25, 2.0)
               - pf.nofeedback_impurity(0.5, 1.0)) < 1e-12
    with pytest.raises(ValueError):
        pf.nofeedback_impurity(-0.1, 1.0)
    with pytest.raises(ValueError):
        pf.nofeedback_impurity(1.0, 0.0)


def mp_nofeedback_impurity(kt):
    """The no-feedback impurity at k t = kt by 30-digit mpmath quadrature."""
    with mpmath.workdps(30):
        kt = mpmath.mpf(kt)
        a = mpmath.sqrt(8 * kt)
        val = mpmath.quad(lambda u: mpmath.exp(-u * u / 2) * mpmath.sech(a * u),
                          [0, 1, mpmath.inf])
        return 2 * val * mpmath.exp(-4 * kt) / mpmath.sqrt(8 * mpmath.pi)


@pytest.mark.parametrize("kt", [1e-8, 1e-4, 0.01, 0.1, 0.5, 1, 2, 3, 10, 50, 100])
def test_nofeedback_impurity_matches_mpmath_quadrature(kt):
    ref = mp_nofeedback_impurity(kt)
    got = pf.nofeedback_impurity(kt, 1.0)
    assert abs(got - ref) <= 1e-13 * ref, (kt, got, ref)


def test_nofeedback_impurity_curve_is_the_scalar_function():
    ts = np.concatenate([[0.0], np.geomspace(1e-6, 60.0, 97), np.linspace(0.0, 2.0, 201)])
    for k in (0.3, 1.0, 2.5):
        curve = pf.nofeedback_impurity_curve(ts, k)
        assert np.array_equal(curve, [pf.nofeedback_impurity(t, k) for t in ts])
    assert pf.nofeedback_impurity_curve([0.0, 0.0], 1.0).tolist() == [0.5, 0.5]
    # a NaN time returned NaN, and an infinite one warned in a multiply
    for ts, bad in (([0.1, -0.1], "-0.1"), ([math.nan], "nan"), ([0.1, math.inf], "inf")):
        with pytest.raises(ValueError) as info:
            pf.nofeedback_impurity_curve(ts, 1.0)
        assert str(info.value) == f"t must be non-negative and finite, got {bad}"


def test_nofeedback_impurity_curve_is_blocked():
    # the curve runs in blocks of samples, each time's sum the one it gets
    # alone, so that a purify reference of 2,000,001 samples (dt 1e-8) no
    # longer holds several (samples x 144) temporaries of 2.3 GB at once
    ts = np.linspace(0.0, 3.0, 2 * pf._CURVE_BLOCK + 5).reshape(-1, 1)
    curve = pf.nofeedback_impurity_curve(ts, 0.7)
    assert curve.shape == ts.shape
    assert np.array_equal(curve[:, 0], [pf.nofeedback_impurity(t, 0.7) for t in ts[:, 0]])
    many = np.linspace(0.0, 2.0, 200_001)
    pf.nofeedback_impurity_curve(many[:10], 1.0)
    tracemalloc.start()
    try:
        pf.nofeedback_impurity_curve(many, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unblocked (samples x 144) temporary alone is 230 MB
    assert peak < 40e6, peak


def test_mc_ensemble_matches_quadrature():
    times, mean, var = pf.mc_nofeedback_impurity(
        1.0, 1e-3, 1000, 600, base_seed=11, sample_every=100)
    sem = np.sqrt(var / 600)
    ref = pf.nofeedback_impurity_curve(times, 1.0)
    for i in range(1, len(times)):
        assert abs(mean[i] - ref[i]) <= 4.0 * sem[i], times[i]


def test_feedback_path_is_deterministic_exponential():
    run = pf.PurificationRun(k=1.0, dt=1e-4, horizon=2.0)
    times, imp = pf.feedback_impurity_path(run)
    ref = 0.5 * np.exp(-8.0 * times)
    assert np.max(np.abs(imp / ref - 1.0)) < 1e-9
    other = pf.feedback_impurity_path(
        pf.PurificationRun(k=1.0, dt=1e-4, horizon=2.0, seed=99))
    assert np.array_equal(imp, other[1])


def test_times_to_target_and_ratio():
    assert abs(pf.time_to_target_feedback(1e-3, 1.0)
               - np.log(500.0) / 8.0) < 1e-14
    t_free = pf.time_to_target_nofeedback(1e-3, 1.0)
    assert abs(t_free - 1.293243408203125) < 1e-4
    assert abs(pf.nofeedback_impurity(t_free, 1.0) - 1e-3) < 2e-5
    ratio = pf.speedup_ratio(1e-3)
    assert abs(ratio - 0.60068043446061059) < 1e-6
    # tighter targets push the ratio down toward one half
    assert abs(pf.speedup_ratio(1e-5) - 0.5685925850037145) < 1e-6
    with pytest.raises(ValueError):
        pf.time_to_target_feedback(0.6, 1.0)
    # a bad rate returned -0.201 (feedback) or divided by zero (no feedback),
    # and a target below 2.8e-309 overflowed 0.5 / target into an infinite
    # time; one ValueError names the target and k
    tiny_k = math.nextafter(1e-300, 0.0)
    for time_to_target in (pf.time_to_target_feedback, pf.time_to_target_nofeedback):
        for target, k, message in (
                (0.1, -1, "k must be positive and finite, got -1"),
                (0.1, 0, "k must be positive and finite, got 0"),
                (1e-309, 1.0, "target must lie in [1e-300, 0.5), got 1e-309"),
                (0.5, math.inf, "target must lie in [1e-300, 0.5), got 0.5; "
                                "k must be positive and finite, got inf"),
                (1e-3, tiny_k, f"k must be at least 1e-300, got {tiny_k!r}"),
                (0.6, 5e-324, "target must lie in [1e-300, 0.5), got 0.6; "
                              "k must be at least 1e-300, got 5e-324")):
            with pytest.raises(ValueError) as info:
                time_to_target(target, k)
            assert str(info.value) == message
        # at the smallest k both times stay finite (the no-feedback bracket
        # started at 1/k = 1e308 and doubled into inf at k = 1e-308)
        for target in (1e-300, 1e-3, 0.4999999):
            assert math.isfinite(time_to_target(target, 1e-300)), (time_to_target, target)


def test_time_to_target_nofeedback_near_one_half():
    # k t falls far below 1e-4 here: a stop at an absolute 1e-4 in k t
    # returned 3.05e-5 at 0.4999999, where the impurity reads 0.499878, and
    # a speed-up ratio of 8.2e-4 where both schemes take about the same time
    for target in (0.4999999, 0.49, 0.4):
        t = pf.time_to_target_nofeedback(target, 1.0)
        assert abs(pf.nofeedback_impurity(t, 1.0) - target) <= 1e-4 * (0.5 - target), target
    assert abs(pf.speedup_ratio(0.4999999) - 1.0) <= 1e-3
