"""Protection of two non-orthogonal states against probabilistic dephasing."""

import inspect

import numpy as np
import pytest
from conftest import bloch_from_density

from qfc import stabilization as sb
from qfc.states import density
from qfc.stochastic import RngStream


def test_protected_pair_geometry():
    theta = 0.6
    a1, a2 = sb.protected_pair(theta)
    v1 = bloch_from_density(density(a1))
    v2 = bloch_from_density(density(a2))
    assert np.allclose(v1, [np.cos(theta), 0.0, np.sin(theta)], atol=1e-12)
    assert np.allclose(v2, [np.cos(theta), 0.0, -np.sin(theta)], atol=1e-12)


def test_closed_forms_special_points():
    # no noise: doing nothing is perfect
    assert abs(sb.f1_do_nothing(0.0, 0.7) - 1.0) < 1e-12
    assert abs(sb.f4_closed(0.0, 0.7) - 1.0) < 1e-12
    # orthogonal pair: discrimination is perfect
    assert abs(sb.f3_discriminate_prepare(0.3, np.pi / 2.0) - 1.0) < 1e-12
    # identical pair: preparing that state is perfect
    assert abs(sb.f3_discriminate_prepare(0.3, 0.0) - 1.0) < 1e-12


def test_weak_operator_pair_limits():
    m0, m1 = sb.weak_operator_pair(0.8)
    assert np.allclose(m0.conj().T @ m0 + m1.conj().T @ m1, np.eye(2),
                       atol=1e-12)
    m0, m1 = sb.weak_operator_pair(np.pi / 2.0)
    assert np.allclose(m0, m1, atol=1e-12)  # no information at chi = pi/2
    m0, _ = sb.weak_operator_pair(0.0)
    assert np.allclose(m0 @ m0, m0, atol=1e-12)  # projective at chi = 0
    with pytest.raises(ValueError):
        sb.weak_operator_pair(-0.1)


def test_feedback_angle_limits():
    assert abs(sb.feedback_angle(0.5, 0.7, 0.5) - np.pi / 2.0) < 1e-12
    eta = sb.feedback_angle(0.1, 0.7, 0.5)
    assert 0.0 < eta < np.pi / 2.0
    expected = np.arctan(1.0 / (0.8 * np.cos(0.7) * np.tan(0.5)))
    assert abs(eta - expected) < 1e-12


def test_optimized_channel_reaches_closed_form():
    for p, theta in [(0.1, 0.7), (0.25, 1.1), (0.05, 0.3)]:
        chi, value = sb.optimize_chi(p, theta)
        closed = sb.f4_closed(p, theta)
        assert abs(closed - value) < 1e-12
        assert 0.0 < chi < np.pi / 2.0


def test_optimize_chi_is_the_exact_optimum():
    # the closed-form chi reaches f4_closed to rounding over the whole square,
    # and no chi on a fine grid of [0, pi/2] beats it (the grid runs at the
    # p = 1/2 corners and four random points: 2001 channel averages cost
    # 0.4 s; the p = 0 corners have their own test)
    rng = np.random.default_rng(29)
    corners = [(p, theta) for p in (0.0, 0.5) for theta in (0.0, np.pi / 2.0)]
    points = corners + [(rng.uniform(0.0, 0.5), rng.uniform(0.0, np.pi / 2.0))
                        for _ in range(200)]
    for p, theta in points:
        chi, value = sb.optimize_chi(p, theta)
        assert 0.0 <= chi <= np.pi / 2.0
        assert abs(value - sb.f4_closed(p, theta)) < 1e-12, (p, theta)
    grid = np.linspace(0.0, np.pi / 2.0, 2001)
    for p, theta in points[2:8]:
        _, value = sb.optimize_chi(p, theta)
        best = max(sb.channel_average_fidelity(p, theta, chi) for chi in grid)
        assert best - value <= 1e-15, (p, theta)


def test_optimize_chi_measures_nothing_without_noise():
    # at p = 0 the channel average is flat to rounding near pi/2, so only an
    # exact rule keeps the chosen chi off the last-bit noise
    for theta in np.linspace(0.0, np.pi / 2.0, 13):
        chi, value = sb.optimize_chi(0.0, theta)
        assert chi == np.pi / 2.0
        assert abs(value - 1.0) < 1e-12


def test_mc_matches_closed_forms():
    rng_p = np.random.default_rng(2024)
    for _ in range(3):
        p = rng_p.uniform(0.02, 0.48)
        theta = rng_p.uniform(0.1, 1.5)
        chi, _ = sb.optimize_chi(p, theta)
        for i, scheme in enumerate(("nothing", "discriminate", "weak")):
            mean, sem = sb.mc_average_fidelity(
                scheme, p, theta, 30_000, RngStream(100, i), chi=chi)
            closed = sb.scheme_closed_form(scheme, p, theta)
            assert abs(mean - closed) <= 4.0 * sem + 1e-9, (scheme, p, theta)


def test_mc_is_reproducible():
    chi, _ = sb.optimize_chi(0.1, 0.7)
    a = sb.mc_average_fidelity("weak", 0.1, 0.7, 5000, RngStream(9), chi=chi)
    b = sb.mc_average_fidelity("weak", 0.1, 0.7, 5000, RngStream(9), chi=chi)
    assert a == b
    with pytest.raises(ValueError):
        sb.mc_average_fidelity("bogus", 0.1, 0.7, 100, RngStream(0), chi=chi)
    # every caller passes optimize_chi's chi, so the sampler has no default
    param = inspect.signature(sb.mc_average_fidelity).parameters["chi"]
    assert (param.kind, param.default) == (param.KEYWORD_ONLY, param.empty)


def test_gap_surface_properties():
    with pytest.raises(ValueError):
        sb.gap_surface(40, 40)
    surf = sb.gap_surface(201, 201)
    assert surf.gap.min() >= -1e-12
    p_star, theta_star, gap_star = surf.argmax()
    assert abs(p_star - 0.115) < 0.02
    assert abs(theta_star - 0.715) < 0.02
    assert abs(gap_star - 0.026) < 0.002
    # the CLI writes f3 as a theta-axis column: every row must be the same
    assert np.all(surf.f3 == surf.f3[:1])


def test_branch_fidelities_never_exceed_one():
    # at chi = pi/2 the live weak branches are pure, and dividing by their
    # probability read 1 + 2.2e-16 at p = 0 and p = 0.1 before the cap
    for scheme, chi in (("nothing", None), ("discriminate", None), ("weak", np.pi / 2.0)):
        for p in (0.0, 0.1):
            _, vals = sb._branch_table(scheme, p, 0.715, chi)
            assert vals.max() <= 1.0, (scheme, p)
    mean, _ = sb.mc_average_fidelity("weak", 0.0, 0.715, 2000, RngStream(7),
                                     chi=sb.optimize_chi(0.0, 0.715)[0])
    assert mean <= 1.0


def test_every_spot_function_checks_the_domain():
    # scheme_closed_form("nothing", 2.0, 0.3) returned a fidelity of -0.83
    for call in (lambda p, theta: sb.scheme_closed_form("nothing", p, theta), sb.optimize_chi,
                 lambda p, theta: sb.mc_average_fidelity("nothing", p, theta, 10, RngStream(0),
                                                         chi=0.0)):
        with pytest.raises(ValueError) as info:
            call(2.0, 0.3)
        assert str(info.value) == "p must lie in [0, 1/2], got 2.0"
        with pytest.raises(ValueError) as info:
            call(-0.1, np.pi)
        assert str(info.value) == ("p must lie in [0, 1/2], got -0.1; "
                                   f"theta must lie in [0, pi/2], got {np.pi!r}")
