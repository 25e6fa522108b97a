from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from armwing import (
    DOWNSTROKE_END,
    DOWNSTROKE_START,
    TargetGait,
    phase_grid,
    sample_targets,
    target_elbow,
    target_shoulder,
    wrap_phase,
)

# The elbow waveform is the argument of 1 + k*exp(i*u); its extreme value
# is arcsin(k) = pi/6 exactly for k = 1/2, reached at u = 2*pi/3 modulo the
# phase lead.  With the 45 deg/rad gain that puts the extremes at
# 120 +- 45*pi/12 degrees.
ELBOW_MAX_DEG = 120.0 + 3.75 * math.pi
ELBOW_MIN_DEG = 120.0 - 3.75 * math.pi


def elbow_by_complex_argument(phi: float) -> float:
    """Independent elbow target: 50-digit phase of 1 + k*exp(i*u)."""
    with mpmath.workdps(50):
        k = mpmath.mpf(1) / 2
        lead = 2 * mpmath.pi / 3
        u = mpmath.mpf(phi) + lead
        inner = mpmath.arg(1 + k * mpmath.expj(u))
        return float(k * inner * 45 + 120)


def test_shoulder_matches_the_plain_sinusoid():
    rng = np.random.default_rng(0)
    for phi in rng.uniform(0.0, 2.0 * math.pi, size=200):
        expected = 35.0 * math.sin(phi) - 10.0
        assert target_shoulder(float(phi)) == pytest.approx(expected, abs=1e-12)


def test_shoulder_range_is_exact_on_the_default_grid():
    values = target_shoulder(phase_grid(360))
    assert float(values.min()) == -45.0
    assert float(values.max()) == 25.0
    assert int(np.argmax(values)) == 90
    assert int(np.argmin(values)) == 270


def test_elbow_extremes_match_the_closed_form():
    assert target_elbow(0.0) == pytest.approx(ELBOW_MAX_DEG, abs=1e-12)
    assert target_elbow(2.0 * math.pi / 3.0) == pytest.approx(ELBOW_MIN_DEG, abs=1e-12)
    values = target_elbow(phase_grid(360))
    assert int(np.argmax(values)) == 0
    assert int(np.argmin(values)) == 120
    assert float(values.max()) == pytest.approx(131.7809724509617, abs=1e-9)
    assert float(values.min()) == pytest.approx(108.21902754903827, abs=1e-9)


def test_elbow_agrees_with_high_precision_complex_argument():
    rng = np.random.default_rng(1)
    phases = np.concatenate(
        [rng.uniform(0.0, 2.0 * math.pi, size=24), [0.0, math.pi, 2.0 * math.pi / 3.0]]
    )
    for phi in phases:
        assert target_elbow(float(phi)) == pytest.approx(
            elbow_by_complex_argument(float(phi)), abs=1e-12
        )


def test_elbow_agrees_with_extended_precision_evaluation():
    rng = np.random.default_rng(2)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=10_000)
    ld = np.longdouble
    k = ld(0.5)
    u = phi.astype(ld) + ld(2.0) * np.arccos(ld(-1.0)) / ld(3.0)
    inner = np.arctan(-k * np.sin(u) / (ld(1.0) + k * np.cos(u)))
    expected = -k * inner * ld(45.0) + ld(120.0)
    got = target_elbow(phi)
    assert float(np.max(np.abs(got - expected.astype(float)))) <= 1e-12


def test_elbow_falls_faster_than_it_rises():
    values = target_elbow(phase_grid(360))
    # Peak at sample 0, trough at sample 120: the fall spans a third of the
    # cycle and the rise the remaining two thirds.
    fall = 120 - 0
    rise = 360 - 120
    assert fall < rise
    assert np.all(np.diff(values[:121]) < 0.0)
    assert np.all(np.diff(values[120:]) > 0.0)


def test_shoulder_decreases_through_the_downstroke():
    phi = phase_grid(720)
    values = target_shoulder(phi)
    inside = (phi > DOWNSTROKE_START) & (phi < DOWNSTROKE_END)
    idx = np.flatnonzero(inside)
    assert np.all(np.diff(values[idx]) < 0.0)


def test_periodicity():
    rng = np.random.default_rng(3)
    for phi in rng.uniform(0.0, 2.0 * math.pi, size=50):
        assert target_shoulder(float(phi) + 2.0 * math.pi) == pytest.approx(
            target_shoulder(float(phi)), abs=1e-9
        )
        assert target_elbow(float(phi) + 2.0 * math.pi) == pytest.approx(
            target_elbow(float(phi)), abs=1e-9
        )


def test_wrap_phase_fixed_points():
    assert float(wrap_phase(0.0)) == 0.0
    assert float(wrap_phase(2.0 * math.pi)) == 0.0
    assert float(wrap_phase(-math.pi)) == math.pi
    assert float(wrap_phase(7.0 * math.pi)) == pytest.approx(math.pi, abs=1e-12)


def test_phase_grids_nest_bitwise():
    g360 = phase_grid(360)
    assert np.array_equal(phase_grid(8), g360[::45])
    assert np.array_equal(phase_grid(120), g360[::3])
    assert np.array_equal(phase_grid(90), g360[::4])
    assert g360[0] == 0.0
    assert float(g360[-1]) < 2.0 * math.pi


def test_phase_grid_rejects_empty():
    with pytest.raises(ValueError):
        phase_grid(0)


def test_sample_targets_shares_one_grid():
    gait = sample_targets(96)
    assert len(gait) == 96
    assert np.array_equal(gait.phi, phase_grid(96))
    assert np.array_equal(gait.shoulder_deg, target_shoulder(gait.phi))
    assert np.array_equal(gait.elbow_deg, target_elbow(gait.phi))


def test_target_gait_validation():
    phi = phase_grid(8)
    ok = sample_targets(8)
    with pytest.raises(ValueError):
        TargetGait(phi=phi, shoulder_deg=ok.shoulder_deg[:4], elbow_deg=ok.elbow_deg)
    with pytest.raises(ValueError):
        TargetGait(
            phi=phi[::-1], shoulder_deg=ok.shoulder_deg, elbow_deg=ok.elbow_deg
        )
    with pytest.raises(ValueError):
        TargetGait(
            phi=phi + 2.0 * math.pi,
            shoulder_deg=ok.shoulder_deg,
            elbow_deg=ok.elbow_deg,
        )
