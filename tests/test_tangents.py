"""The tangent pass against independent routes: central differences of the
primal sweep at several steps, and a 50-digit mpmath derivative of the
closed-form four-bar."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from armwing import (
    fourbar_spec,
    mirror_mechanism,
    sensitivity_rank,
    sweep_series,
    validate_mechanism,
)
from armwing.solver import (
    _closure_jacobian,
    _design_tangents,
    _forward,
    _free_vector,
    _plane,
    _solve_newton,
    sweep_tangents,
)

from conftest import DEMO_PATH, REFERENCE_PATH
from test_properties import _shipped, crank_rockers, perturbed_designs
from test_solver import _geared_fivebar, _triad_sixbar

FD_STEPS = (1e-4, 1e-5, 1e-6, 1e-7)
FD_TOL = 1e-6
MPMATH_TOL = 1e-9
RANK_DELTAS = (1e-2, 1e-3, 1e-4)
RANK_ERR_PER_DELTA2 = 30.0  # relative; the shipped designs and +-1% give 7.3 to 10.1


def _at(mech, geom):
    out = mech.copy()
    out.geom = geom
    return out


def _directions(mech, seed: int, count: int = 3) -> np.ndarray:
    """Random unit directions over every geom slot, bound or not."""
    dgeom = np.random.default_rng(seed).normal(size=(count, mech.geom.size))
    return dgeom / np.linalg.norm(dgeom, axis=1, keepdims=True)


def _quantities(series: dict) -> dict:
    """Every differentiated series of a sweep (or of its tangents), by name."""
    out = {key: series[key] for key in ("theta_s_deg", "theta_e_deg")}
    for key in ("margin", "transmission"):
        out.update({f"{key}[{cid}]": value for cid, value in series[key].items()})
    return out


def _assert_matches_central_differences(mech, dgeom, samples=36):
    """Per entry, the best of the FD_STEPS central differences agrees with
    the tangent within FD_TOL of the series' largest tangent (at least 1)."""
    series = sweep_series(mech, samples, strict=False)
    got = _quantities(sweep_tangents(series, dgeom))
    best = {name: np.full(value.shape, np.inf) for name, value in got.items()}
    scale = max(1.0, float(np.max(np.abs(mech.geom))))
    for h in FD_STEPS:
        for k, direction in enumerate(dgeom):
            step = h * scale * direction
            plus = sweep_series(_at(mech, mech.geom + step), samples, strict=False)
            minus = sweep_series(_at(mech, mech.geom - step), samples, strict=False)
            clean = series["ok"] & plus["ok"] & minus["ok"]
            for name, (hi, lo) in zip(got, zip(*(_quantities(s).values() for s in (plus, minus)))):
                diff = hi - lo
                if name.endswith("_deg"):  # principal values may jump a turn
                    diff = np.remainder(diff + 180.0, 360.0) - 180.0
                err = np.where(clean, np.abs(diff / (2.0 * h * scale) - got[name][k]), 0.0)
                best[name][k] = np.minimum(best[name][k], err)
    assert np.any(series["ok"])
    worst = {}
    for name, value in got.items():
        size = np.nanmax(np.abs(np.where(series["ok"], value, np.nan)), axis=1, keepdims=True)
        worst[name] = float(np.max(best[name] / np.maximum(size, 1.0)))
    assert max(worst.values()) <= FD_TOL, worst


@pytest.mark.parametrize(
    "name", ["reference", "mirror", "demo", "triad"]
)
def test_tangents_match_central_differences(name):
    if name == "triad":
        mech = validate_mechanism(_triad_sixbar())
    else:
        mech = _shipped(DEMO_PATH if name == "demo" else REFERENCE_PATH)
        if name == "mirror":
            mech = mirror_mechanism(mech)
    _assert_matches_central_differences(mech, _directions(mech, seed=len(name)))


@pytest.mark.parametrize("path", [REFERENCE_PATH, DEMO_PATH], ids=lambda p: p.stem)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_tangents_of_perturbed_designs_match_central_differences(path, data, seed):
    mech = data.draw(perturbed_designs(path), label="design")
    _assert_matches_central_differences(mech, _directions(mech, seed))
    # The fit's own directions: a unit vector on each bound parameter's slot.
    dgeom = np.zeros((len(mech.parameters), mech.geom.size))
    for k, name in enumerate(mech.parameters):
        dgeom[k, mech._targets[name]] = 1.0
    _assert_matches_central_differences(mech, dgeom, samples=12)


def _root(mech, phi: float, q) -> object:
    """The Newton pose from free angles q, iterated past NEWTON_TOL_MM to the
    rounding floor, so that differences of roots are not solver tolerance."""
    sol = _solve_newton(mech, phi, q)
    for _ in range(3):
        q = _free_vector(mech, sol) - np.linalg.solve(_closure_jacobian(sol), sol.gap)
        sol = _forward(mech, phi, q)
    return sol


@pytest.mark.parametrize("spec", [_triad_sixbar, _geared_fivebar], ids=["triad", "geared-fivebar"])
def test_newton_tangents_follow_the_implicit_function_rule(spec):
    """Newton-only poses: the tangents of every link's angle and origin
    against central differences of Newton roots, at the swept samples up to
    the first that fails (past it, continuation restarts from a stale pose
    and may wind the gear input through hundreds of turns)."""
    mech = validate_mechanism(spec())
    series = sweep_series(mech, 36, strict=False)
    dgeom = _directions(mech, seed=3)
    scale = max(1.0, float(np.max(np.abs(mech.geom))))
    worst = 0.0
    clean = np.cumprod(series["ok"]).astype(bool)
    assert np.count_nonzero(clean) >= 8
    for i in np.flatnonzero(clean):
        phi = float(series["phi"][i])
        pose = _root(mech, phi, series["free"][i])
        tangents = _design_tangents(pose, dgeom)
        got = np.array(
            [np.broadcast_to(tangents.theta[link], (len(dgeom),)) for link in mech.links]
            + [tangents.origin[link] for link in mech.links]
        )
        best = np.full(got.shape, np.inf)
        for h in FD_STEPS:
            step = h * scale * dgeom
            hi, lo = (
                np.array(
                    [
                        [sol.theta[link] for link in mech.links]
                        + [complex(sol.origin[link]) for link in mech.links]
                        for sol in (
                            _root(_at(mech, mech.geom + sign * row), phi, _free_vector(mech, pose))
                            for row in step
                        )
                    ]
                ).T
                for sign in (1.0, -1.0)
            )
            best = np.minimum(best, np.abs((hi - lo) / (2.0 * h * scale) - got))
        worst = max(worst, float(np.max(best / np.maximum(1.0, np.abs(got)))))
    assert worst <= FD_TOL, worst


def _fourbar_angles(lengths, branch: str, phi):
    """Rocker and coupler directions (degrees) of the canonical four-bar at
    crank angle phi, by the circle construction in mpmath."""
    ground, crank, coupler, rocker = lengths
    bx, by = crank * mpmath.cos(phi), crank * mpmath.sin(phi)
    dx, dy = ground - bx, -by
    dist = mpmath.hypot(dx, dy)
    along = (dist * dist + coupler * coupler - rocker * rocker) / (2 * dist)
    height = mpmath.sqrt(coupler * coupler - along * along)
    sign = 1 if branch == "open" else -1
    cx = bx + (along * dx - sign * height * dy) / dist
    cy = by + (along * dy + sign * height * dx) / dist
    return (
        mpmath.degrees(mpmath.atan2(cy, cx - ground)),
        mpmath.degrees(mpmath.atan2(cy - by, cx - bx)),
    )


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(lengths=crank_rockers(), branch=st.sampled_from(["open", "crossed"]))
def test_fourbar_tangents_match_a_50_digit_closed_form(lengths, branch):
    mech = validate_mechanism(fourbar_spec(*lengths, branch=branch))
    names = ("ground_span", "crank_len", "coupler_len", "rocker_len")
    dgeom = np.zeros((4, mech.geom.size))
    for k, name in enumerate(names):
        dgeom[k, mech._targets[name]] = 1.0
    samples = 12
    series = sweep_series(mech, samples)
    tangents = sweep_tangents(series, dgeom)
    with mpmath.workdps(50):
        for i, phi in enumerate(series["phi"]):
            point = [mpmath.mpf(x) for x in lengths]
            for k in range(4):
                for out, key in enumerate(("theta_s_deg", "theta_e_deg")):

                    def angle(x, k=k, out=out):
                        moved = list(point)
                        moved[k] = x
                        return _fourbar_angles(moved, branch, mpmath.mpf(phi))[out]

                    want = float(mpmath.diff(angle, point[k]))
                    got = float(tangents[key][k, i])
                    assert abs(got - want) <= MPMATH_TOL * max(1.0, abs(want)), (key, k, i)


@pytest.mark.parametrize("path", [REFERENCE_PATH, DEMO_PATH], ids=lambda p: p.stem)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_rank_score_tends_to_the_tip_tangent(path, data):
    """As delta -> 0, sensitivity_rank's central-difference score of each
    parameter p approaches max over phases of |p d(tip)/dp| / 100, the
    per-1% norm of the tangent pass's wingtip tangent, within an O(delta^2)
    error; a parameter that moves no tip scores exactly 0.  The fit's
    tangent pass leaves out the steps no fitted output reads, such as the
    reference's digit, so this pass runs every step."""
    mech = data.draw(perturbed_designs(path), label="design")
    samples = 36
    every = mech.copy()
    every.tangent_steps = every.steps
    series = sweep_series(every, samples, strict=False)
    assume(np.all(series["ok"]))
    names = mech.parameter_names()
    slots = [mech._targets[name] for name in names]
    dgeom = np.zeros((len(names), mech.geom.size))
    dgeom[range(len(names)), slots] = mech.geom[slots]  # d/d(scale) = p d/dp
    tip = _design_tangents(series["_solution"], dgeom).point_world(
        *mech._point_outputs["wingtip"])
    limit = np.linalg.norm(_plane(tip, (len(names), samples)), axis=-1).max(axis=-1) / 100.0
    floor = 1e-9 * float(np.max(limit))
    for delta in RANK_DELTAS:
        score = dict(sensitivity_rank(mech, delta=delta, samples=samples))
        got = np.array([score[name] for name in names])
        assert np.all(got[limit == 0.0] == 0.0)
        err = np.abs(got - limit)
        assert np.all(err <= RANK_ERR_PER_DELTA2 * delta**2 * limit + floor), (delta, err / limit)
