from __future__ import annotations

import math

import numpy as np
import pytest

from armwing import (
    FourBar,
    NonPositiveLength,
    NotAssemblable,
    SingularConfiguration,
    circle_circle,
    solve_fourbar,
)
from armwing.solver import wrap_pi


def rocker_by_bisection(fb: FourBar, theta_in):
    """Independent open-branch rocker angle via bisection on the loop gap.

    Instead of intersecting circles, treat the distance from the candidate
    coupler pin C(psi) to the crank pin B, minus the coupler length, as a
    function of the rocker angle psi.  The open branch requires
    cross(D - B, C - B) > 0, which confines psi to the half turn
    (omega, omega + pi) with omega the direction from B to D; the gap has
    opposite signs at those endpoints and exactly one root between them.
    """
    theta = np.asarray(theta_in, dtype=float)
    dx = fb.ground * math.cos(fb.ground_angle)
    dy = fb.ground * math.sin(fb.ground_angle)
    bx = fb.crank * np.cos(theta)
    by = fb.crank * np.sin(theta)

    def gap(psi):
        cx = dx + fb.rocker * np.cos(psi)
        cy = dy + fb.rocker * np.sin(psi)
        return np.hypot(cx - bx, cy - by) - fb.coupler

    omega = np.arctan2(dy - by, dx - bx)
    lo = omega + 1e-9
    hi = omega + math.pi - 1e-9
    assert np.all(gap(lo) >= 0.0) and np.all(gap(hi) <= 0.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        positive = gap(mid) > 0.0
        lo = np.where(positive, mid, lo)
        hi = np.where(positive, hi, mid)
    return 0.5 * (lo + hi)


def random_crank_rocker(rng: np.random.Generator) -> FourBar:
    """Seedable Grashof crank-rocker with the crank strictly shortest."""
    while True:
        ground, coupler, rocker = rng.uniform(3.0, 10.0, size=3)
        crank = rng.uniform(0.3, 0.9) * min(ground, coupler, rocker)
        lengths = sorted((ground, crank, coupler, rocker))
        if lengths[0] + lengths[-1] <= lengths[1] + lengths[2] - 0.2:
            return FourBar(ground, crank, coupler, rocker)


def test_anchor_case_open_branch():
    pose = solve_fourbar(FourBar(5.0, 2.0, 6.0, 4.0), math.radians(90.0))
    assert math.degrees(pose.theta_rocker) == pytest.approx(
        80.25691282921025, abs=1e-12
    )
    assert math.degrees(pose.theta_coupler) == pytest.approx(
        18.8879026661346, abs=1e-12
    )
    assert pose.coupler_pin[0] == pytest.approx(5.67692237468558, abs=1e-12)
    assert pose.coupler_pin[1] == pytest.approx(3.9423059367139484, abs=1e-12)
    assert math.degrees(pose.transmission_angle) == pytest.approx(
        61.36901016307564, abs=1e-12
    )
    assert pose.residual <= 1e-12
    assert pose.crank_pin == pytest.approx((0.0, 2.0), abs=1e-15)


def test_anchor_case_crossed_branch():
    pose = solve_fourbar(
        FourBar(5.0, 2.0, 6.0, 4.0, branch="crossed"), math.radians(90.0)
    )
    assert math.degrees(pose.theta_rocker) == pytest.approx(
        -123.85973180191387, abs=1e-12
    )
    # Both branches satisfy the same loop equation.
    assert pose.residual <= 1e-12


def test_anchor_case_against_bisection_oracle():
    fb = FourBar(5.0, 2.0, 6.0, 4.0)
    theta = math.radians(90.0)
    psi = float(rocker_by_bisection(fb, theta))
    pose = solve_fourbar(fb, theta)
    assert abs(wrap_pi(pose.theta_rocker - psi)) <= 1e-12


def test_random_crank_rockers_match_bisection_oracle():
    rng = np.random.default_rng(42)
    theta = 2.0 * math.pi * np.arange(360) / 360.0
    for _ in range(20):
        fb = random_crank_rocker(rng)
        pose = solve_fourbar(fb, theta)
        psi = rocker_by_bisection(fb, theta)
        assert float(np.max(np.abs(wrap_pi(pose.theta_rocker - psi)))) <= 1e-9
        assert float(np.max(pose.residual)) <= 1e-9


def test_vectorized_solve_matches_scalars():
    fb = FourBar(5.0, 2.0, 6.0, 4.0)
    theta = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
    pose = solve_fourbar(fb, theta)
    for k, t in enumerate(theta):
        single = solve_fourbar(fb, float(t))
        assert single.theta_rocker == pose.theta_rocker[k]
        assert single.theta_coupler == pose.theta_coupler[k]
        assert single.coupler_pin[0] == pose.coupler_pin[k, 0]
        assert single.coupler_pin[1] == pose.coupler_pin[k, 1]


def test_ground_angle_rotates_the_whole_mechanism():
    rng = np.random.default_rng(3)
    base = FourBar(5.0, 2.0, 6.0, 4.0)
    for _ in range(10):
        alpha = float(rng.uniform(-math.pi, math.pi))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        tilted = FourBar(5.0, 2.0, 6.0, 4.0, ground_angle=alpha)
        p0 = solve_fourbar(base, theta)
        p1 = solve_fourbar(tilted, theta + alpha)
        assert abs(wrap_pi(p1.theta_rocker - p0.theta_rocker - alpha)) <= 1e-12
        assert abs(wrap_pi(p1.theta_coupler - p0.theta_coupler - alpha)) <= 1e-12
        c, s = math.cos(alpha), math.sin(alpha)
        x, y = p0.coupler_pin
        assert p1.coupler_pin[0] == pytest.approx(c * x - s * y, abs=1e-12)
        assert p1.coupler_pin[1] == pytest.approx(s * x + c * y, abs=1e-12)


def test_random_generated_chains_are_crank_rockers():
    """Every generated chain is Grashof (shortest + longest below the sum of
    the other two) with the crank strictly shortest, so the crank turns
    fully and the rocker rocks."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        fb = random_crank_rocker(rng)
        s, p, q, l = sorted((fb.ground, fb.crank, fb.coupler, fb.rocker))
        assert s + l < p + q
        assert fb.crank < min(fb.ground, fb.coupler, fb.rocker)


def test_circle_circle_lies_on_both_circles():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c1 = rng.uniform(-5.0, 5.0, size=2)
        c2 = rng.uniform(-5.0, 5.0, size=2)
        d = float(np.hypot(*(c2 - c1)))
        if d < 1e-3:
            continue
        r1 = float(rng.uniform(0.55 * d, 0.9 * d))
        r2 = float(rng.uniform(d - r1 + 0.05 * d, r1 + 0.95 * d))
        for sign in (1.0, -1.0):
            p, h, dist = circle_circle(c1, r1, c2, r2, sign)
            assert dist == pytest.approx(d, abs=1e-12)
            assert np.hypot(*(p - c1)) == pytest.approx(r1, abs=1e-9)
            assert np.hypot(*(p - c2)) == pytest.approx(r2, abs=1e-9)
        p_open, _, _ = circle_circle(c1, r1, c2, r2, 1.0)
        p_cross, _, _ = circle_circle(c1, r1, c2, r2, -1.0)
        # The two picks mirror across the center line.
        mid = 0.5 * (p_open + p_cross)
        u = (c2 - c1) / d
        v = mid - c1
        assert float(u[0] * v[1] - u[1] * v[0]) == pytest.approx(0.0, abs=1e-9)


def test_circle_circle_tangent_and_disjoint():
    p, h, d = circle_circle((0.0, 0.0), 1.0, (2.0, 0.0), 1.0, 1.0)
    assert h == 0.0
    assert p == pytest.approx((1.0, 0.0), abs=1e-12)
    p, h, d = circle_circle((0.0, 0.0), 1.0, (5.0, 0.0), 1.0, 1.0)
    assert np.isnan(h) and np.all(np.isnan(p))


def test_nonpositive_lengths_rejected():
    with pytest.raises(NonPositiveLength):
        FourBar(5.0, 0.0, 6.0, 4.0)
    with pytest.raises(NonPositiveLength):
        FourBar(5.0, 2.0, -6.0, 4.0)
    with pytest.raises(ValueError):
        FourBar(5.0, 2.0, 6.0, 4.0, branch="upside-down")


def test_not_assemblable_reports_the_phase():
    # Crank pin to rocker pivot spans 8..12 but coupler+rocker is only 7.
    fb = FourBar(10.0, 2.0, 3.0, 4.0)
    with pytest.raises(NotAssemblable) as err:
        solve_fourbar(fb, 0.0)
    assert "gap" in str(err.value)
    assert err.value.phi == 0.0


def test_collinear_configuration_is_singular():
    # At theta = pi the pin distance is exactly coupler + rocker: the two
    # moving links are collinear and the branch is ambiguous.
    fb = FourBar(5.0, 2.0, 3.5, 3.5)
    with pytest.raises(SingularConfiguration):
        solve_fourbar(fb, math.pi)


def test_transmission_angle_is_acute_and_positive():
    rng = np.random.default_rng(9)
    theta = 2.0 * math.pi * np.arange(90) / 90.0
    for _ in range(5):
        fb = random_crank_rocker(rng)
        pose = solve_fourbar(fb, theta)
        assert np.all(pose.transmission_angle > 0.0)
        assert np.all(pose.transmission_angle <= math.pi / 2.0 + 1e-12)
