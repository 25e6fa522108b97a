from __future__ import annotations

import math

import numpy as np
import pytest

import armwing.sensitivity
from armwing import (
    MechanismGraph,
    UnknownParameter,
    sensitivity_rank,
    sensitivity_sweep,
)
from test_fitting import _with_a_held_parameter
from test_properties import _rank_one_design_at_a_time
from test_solver import _geared_fivebar, _triad_sixbar

# Regression table for the bundled reference design at delta = 2.5%,
# 360 samples.  Scores are max wingtip displacement in mm per 1% change.
EXPECTED_RANKING = [
    ("shoulder_x", 4.27467105779173),
    ("h_coupler_len", 3.733486991533801),
    ("shoulder_y", 2.3492905257666994),
    ("drive_pin_x", 2.2992600752389647),
    ("crank_phase", 2.231928482076791),
    ("r_coupler_len", 2.078552151506185),
    ("elbow_y", 2.050114373171366),
    ("gear_pivot_y", 1.6700588961246259),
    ("mirror_ratio", 1.6609083570123326),
    ("crank_len", 1.3887336659250162),
    ("gear_pivot_x", 1.3292115521542904),
    ("r_crank_phase", 0.7141047354893908),
    ("ctrl_pin_x", 0.6214679481939096),
    ("radius_len", 0.620000000000011),
    ("ctrl_pin_y", 0.37032902689192926),
    ("digit_ratio", 0.36758066274376405),
    ("elbow_x", 0.3641584365822393),
    ("digit_len", 0.3400000000000054),
    ("digit_phase", 0.3026151153367567),
    ("r_crank_len", 0.22312557051310522),
]

# Parameters that no kinematic output depends on score exactly zero: the
# fixed crank pivot coordinates, local-frame skew placeholders, membrane
# anchor coordinates and the pure reporting offsets.
EXPECTED_ZEROS = [
    "crank_pivot_x",
    "crank_pivot_y",
    "crank_tip_y",
    "digit_tip_y",
    "drive_pin_y",
    "elbow_zero",
    "h_coupler_skew",
    "mem_anchor_x",
    "mem_anchor_y",
    "r_coupler_skew",
    "r_crank_tip_y",
    "radius_tip_y",
    "shoulder_zero",
]


def test_scale_one_deviation_is_exactly_zero(reference):
    result = sensitivity_sweep(reference, "crank_len", (0.98, 1.0, 1.02),
                               samples=90)
    assert result.deviations[1.0] == 0.0
    assert result.failures == {}
    assert result.deviations[0.98] > 0.0
    assert result.deviations[1.02] > 0.0


def test_scales_must_include_nominal(reference):
    with pytest.raises(ValueError):
        sensitivity_sweep(reference, "crank_len", (0.98, 1.02), samples=90)


def test_unknown_parameter_rejected(reference):
    with pytest.raises(UnknownParameter):
        sensitivity_sweep(reference, "wing_area", (0.9, 1.0, 1.1))


def test_sweep_leaves_the_mechanism_untouched(reference):
    before = reference.parameter_values()
    sensitivity_sweep(reference, "crank_len", (0.95, 1.0, 1.05), samples=90)
    assert reference.parameter_values() == before


def test_deviations_widen_with_the_perturbation(reference):
    scales = (0.95, 0.975, 1.0, 1.025, 1.05)
    result = sensitivity_sweep(reference, "shoulder_x", scales, samples=90)
    assert result.deviations[1.0] == 0.0
    assert result.deviations[0.975] < result.deviations[0.95]
    assert result.deviations[1.025] < result.deviations[1.05]


def test_high_scoring_family_is_wider_than_low_scoring(reference):
    scales = (0.95, 1.0, 1.05)
    wide = sensitivity_sweep(reference, "shoulder_x", scales, samples=90)
    narrow = sensitivity_sweep(reference, "r_crank_len", scales, samples=90)
    for s in (0.95, 1.05):
        assert wide.deviations[s] > narrow.deviations[s]
    assert wide.score_mm_per_pct > 5.0 * narrow.score_mm_per_pct


def test_assembly_destroying_scale_is_recorded_not_raised(reference):
    result = sensitivity_sweep(reference, "crank_len", (1.0, 2.0), samples=90)
    assert 2.0 in result.failures
    assert math.isfinite(result.failures[2.0])
    assert np.isnan(result.deviations[2.0])
    assert 2.0 not in result.trajectories


def test_ranking_regression(reference):
    ranking = sensitivity_rank(reference, delta=0.025, samples=360)
    assert len(ranking) == 33
    positive = ranking[: len(EXPECTED_RANKING)]
    assert [name for name, _ in positive] == [n for n, _ in EXPECTED_RANKING]
    for (name, got), (_, want) in zip(positive, EXPECTED_RANKING):
        assert got == pytest.approx(want, rel=1e-9), name
    tail = ranking[len(EXPECTED_RANKING) :]
    assert [name for name, _ in tail] == EXPECTED_ZEROS
    assert all(score == 0.0 for _, score in tail)


def test_top_three_stable_across_deltas(reference):
    top25 = [n for n, _ in sensitivity_rank(reference, delta=0.025)[:3]]
    top10 = [n for n, _ in sensitivity_rank(reference, delta=0.01)[:3]]
    assert top25 == top10 == ["shoulder_x", "h_coupler_len", "shoulder_y"]


def test_delta_bounds(reference):
    with pytest.raises(ValueError):
        sensitivity_rank(reference, delta=0.0)
    with pytest.raises(ValueError):
        sensitivity_rank(reference, delta=0.2)


def test_one_sided_families_still_score(reference):
    below = sensitivity_sweep(reference, "crank_len", (0.98, 1.0), samples=90)
    above = sensitivity_sweep(reference, "crank_len", (1.0, 1.02), samples=90)
    trivial = sensitivity_sweep(reference, "crank_len", (1.0,), samples=90)
    assert below.score_mm_per_pct > 0.0
    assert above.score_mm_per_pct > 0.0
    assert trivial.score_mm_per_pct == 0.0


def _count_calls(monkeypatch, *names) -> list[str]:
    """Record every call of the named functions, by name, in the returned list."""
    owners = {
        "with_parameters": MechanismGraph,
        "sweep_gait": armwing.sensitivity,
        "sweep_series": armwing.sensitivity,
    }
    calls = []
    for name in names:
        original = getattr(owners[name], name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owners[name], name, wrapper)
    return calls


def test_family_sweeps_each_scale_once(reference, monkeypatch):
    calls = _count_calls(monkeypatch, "with_parameters", "sweep_gait", "sweep_series")
    result = sensitivity_sweep(reference, "crank_len", (0.98, 1.0, 1.02), samples=90)
    assert not result.failures
    # One strict sweep per scale, then one batched pass of the two scales
    # nearest 1.0 for the score.
    assert calls.count("sweep_gait") == 3
    assert calls.count("sweep_series") == 1
    assert calls.count("with_parameters") == 4


def test_rank_applies_and_sweeps_once_per_pass(reference, monkeypatch):
    calls = _count_calls(monkeypatch, "with_parameters", "sweep_series")
    samples = 360
    per_pass = armwing.sensitivity.PASS_SAMPLES // (samples + 1)
    passes = math.ceil(2 * len(reference.parameters) / per_pass)
    assert 1 < passes < 2 * len(reference.parameters)
    sensitivity_rank(reference, samples=samples)
    assert calls.count("with_parameters") == calls.count("sweep_series") == passes


@pytest.mark.parametrize("build", [_triad_sixbar, _geared_fivebar], ids=["triad", "geared-fivebar"])
def test_newton_mechanisms_rank_and_score_one_design_at_a_time(build, monkeypatch):
    """A mechanism with no analytic plan sweeps on the Newton route, one
    design a pass: its rank and family score equal the scores of separate
    one-design sweeps, bit for bit."""
    mech = _with_a_held_parameter(build())
    assert mech.plan is None
    samples = 24
    calls = _count_calls(monkeypatch, "sweep_series")
    ranking = sensitivity_rank(mech, delta=0.025, samples=samples)
    assert calls.count("sweep_series") == 2 * len(mech.parameters)
    assert ranking == _rank_one_design_at_a_time(mech, 0.025, samples)
    assert 0.0 < ranking[0][1] < math.inf
    family = sensitivity_sweep(mech, "pivot_x", (0.98, 0.99, 1.0, 1.01), samples=samples)
    [(_, score)] = _rank_one_design_at_a_time(mech, 0.01, samples)
    assert family.score_mm_per_pct == score
