from __future__ import annotations

import gc
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares, minimize

from armwing import (
    DesignVector,
    FitOptions,
    GridMismatch,
    NoFeasibleStart,
    NotAssemblable,
    ParameterBinding,
    SchemaError,
    SymmetryConstraint,
    constraint_names,
    cost,
    evaluate_constraints,
    fourbar_spec,
    optimize_armwing,
    optimize_stage,
    sample_targets,
    sweep_series,
    validate_mechanism,
)
from armwing.fitting import (FEASIBILITY_TOL, PENALTY_DEG, _constraint_core, _stage_jacobian,
                             _stage_residuals, _StageProblem)
from armwing.gait import TARGET_ANGLE_MAX_DEG, TargetGait
from armwing.io import report_to_dict
from armwing.solver import _results, _tangents, sweep_tangents
from conftest import DEMO_PATH, REFERENCE_PATH
from test_properties import _same_bits, perturbed_designs
from test_solver import _geared_fivebar, _triad_sixbar

FAST = FitOptions(seed=0, multistarts=2, maxiter=25)


def targets_of(mech, samples: int = 360) -> TargetGait:
    """Targets that the given mechanism reproduces exactly."""
    series = sweep_series(mech, samples)
    return TargetGait(
        phi=series["phi"],
        shoulder_deg=series["theta_s_deg"],
        elbow_deg=series["theta_e_deg"],
    )


def shifted_targets(mech, shoulder_shift: float, elbow_shift: float) -> TargetGait:
    base = targets_of(mech)
    return TargetGait(
        phi=base.phi,
        shoulder_deg=base.shoulder_deg + shoulder_shift,
        elbow_deg=base.elbow_deg + elbow_shift,
    )


def test_cost_is_the_mean_squared_residual():
    assert cost(np.zeros(10)) == 0.0
    assert cost(np.full(360, 2.0)) == 4.0
    assert cost([3.0, -4.0]) == pytest.approx(12.5)


def test_residuals_of_a_constant_shift(demo_fourbar):
    targets = shifted_targets(demo_fourbar, -2.0, 1.5)
    series = sweep_series(demo_fourbar, 360)
    r = _stage_residuals(series, targets, "all")
    assert r.shape == (720,)
    assert np.allclose(r[:360], 2.0, atol=1e-12)
    assert np.allclose(r[360:], -1.5, atol=1e-12)
    assert cost(_stage_residuals(series, targets, "humerus")) == pytest.approx(4.0)
    assert cost(_stage_residuals(series, targets, "radius")) == pytest.approx(2.25)
    assert cost(r) == pytest.approx((4.0 + 2.25) / 2.0)


def test_perfect_targets_cost_zero(demo_fourbar):
    targets = targets_of(demo_fourbar)
    assert cost(_stage_residuals(sweep_series(demo_fourbar, 360), targets, "all")) == 0.0


def test_grid_mismatch_both_ways(demo_fourbar):
    """Targets off the uniform sweep grid are refused by a stage fit and by
    the staged fit: phases shifted by half a step, and a grid that is not
    uniform."""
    base = sample_targets(180)
    shifted = base.phi + np.pi / 180
    uneven = np.concatenate([base.phi[:90], base.phi[90:] + np.pi / 360])
    for phi in (shifted, uneven):
        targets = TargetGait(phi=phi, shoulder_deg=base.shoulder_deg, elbow_deg=base.elbow_deg)
        with pytest.raises(GridMismatch):
            optimize_stage(demo_fourbar, targets, "humerus", FAST)
        with pytest.raises(GridMismatch):
            optimize_armwing(demo_fourbar, targets, FAST)


@pytest.mark.parametrize("series", ["shoulder_deg", "elbow_deg"])
@pytest.mark.parametrize("value", [1e308, np.nan], ids=["huge", "nan"])
def test_a_target_angle_out_of_bounds_is_refused_by_name(series, value, demo_fourbar,
                                                         monkeypatch):
    """A TargetGait built through the API with a non-finite angle, or one
    beyond TARGET_ANGLE_MAX_DEG, is a SchemaError naming the series before
    any sweep; near 1e308 it once reached the polish's least_squares as a
    raw ValueError."""
    def never(*args, **kwargs):
        raise AssertionError("no sweep before the targets are checked")

    monkeypatch.setattr("armwing.fitting.sweep_series", never)
    base = sample_targets(36)
    angles = getattr(base, series).copy()
    angles[3] = value
    targets = replace(base, **{series: angles})
    for fit in (lambda: optimize_stage(demo_fourbar, targets, "humerus", FAST),
                lambda: optimize_armwing(demo_fourbar, targets, FAST)):
        with pytest.raises(SchemaError, match=f"^targets.{series}: "):
            fit()
    at_bound = replace(base, **{series: np.where(np.arange(36) == 3, TARGET_ANGLE_MAX_DEG,
                                                 getattr(base, series))})
    monkeypatch.undo()
    optimize_stage(demo_fourbar, at_bound, "humerus", FitOptions(multistarts=1, maxiter=1))


def test_flagged_residuals_use_the_fixed_penalty():
    # Non-Grashof chain: the crank cannot complete a turn, so part of the
    # grid cannot assemble.
    mech = validate_mechanism(fourbar_spec(50.0, 32.0, 60.0, 40.0))
    targets = sample_targets(360)
    with pytest.raises(NotAssemblable):
        _stage_residuals(sweep_series(mech, 360), targets, "all")
    series = sweep_series(mech, 360, strict=False)
    r = _stage_residuals(series, targets, "all")
    ok = series["ok"]
    assert np.any(~ok)
    assert np.all(r[:360][~ok] == PENALTY_DEG)
    assert np.all(r[360:][~ok] == PENALTY_DEG)
    assert np.all(np.abs(r[:360][ok]) < PENALTY_DEG)


def test_constraint_vector_layout(demo_fourbar):
    names = constraint_names(demo_fourbar)
    values = evaluate_constraints(demo_fourbar)
    assert len(names) == len(values)
    assert names[0] == "assembly_margin[j_wrist]"
    assert "grashof_margin[j_wrist]" in names
    assert "crank_shortest[j_wrist]" in names
    assert "transmission_floor[j_wrist]" in names
    assert float(np.max(values)) <= 0.0


def test_symmetry_equalities_appear_as_paired_entries(reference):
    names = constraint_names(reference)
    values = evaluate_constraints(reference)
    assert names[-4:] == [
        "symmetry[crank_on_body_axis]+",
        "symmetry[crank_on_body_axis]-",
        "symmetry[crank_up_at_phase_zero]+",
        "symmetry[crank_up_at_phase_zero]-",
    ]
    assert values[-4] == -values[-3]
    assert values[-2] == -values[-1]
    # The shipped reference satisfies both equalities exactly.
    assert float(np.max(np.abs(values[-4:]))) == 0.0


def _with_a_held_parameter(spec):
    """``spec`` with its last ground pivot's x as a humerus parameter that
    a symmetry equality holds in place, validated."""
    pivot = spec.ground_pivots[-1]
    target = f"pivot:{pivot.id}.x"
    spec.parameters = [ParameterBinding("pivot_x", target, pivot.x - 1.0, pivot.x + 1.0, "humerus")]
    spec.symmetry = [SymmetryConstraint("pivot_x_held", target, pivot.x)]
    return validate_mechanism(spec)


@pytest.mark.parametrize("name", ["reference", "demo", "triad", "geared-fivebar"])
def test_one_table_lays_out_names_values_and_stage_bounds(name, reference, demo_fourbar,
                                                          monkeypatch):
    """The entries of mech.constraints, compiled at validation, give the
    constraint vector's names, values (a symmetry equality h published as
    the pair h, -h) and a stage's bounds in one order; a closure no dyad
    closes gets step-function entries.  Building a stage problem sweeps
    nothing."""
    mech = {"reference": reference, "demo": demo_fourbar,
            "triad": _with_a_held_parameter(_triad_sixbar()),
            "geared-fivebar": _with_a_held_parameter(_geared_fivebar())}[name]
    table = mech.constraints
    dyads = {step.closure for step in mech.plan or ()}
    for label, kind, entries in (("assembly_margin", "margin", table[:len(mech.closures)]),
                                 ("transmission_floor", "transmission",
                                  [e for e in table if e.name.startswith("transmission")])):
        assert [e.name for e in entries] == [f"{label}[{cid}]" for cid in mech.closures]
        assert [e.kind for e in entries] == [
            kind if cid in dyads else "assembled" for cid in mech.closures]
    symmetric = np.array([entry.kind == "symmetry" for entry in table])
    assert np.count_nonzero(symmetric) == len(mech.spec.symmetry)
    published = [(i, suffix) for i in range(len(table))
                 for suffix in (("+", "-") if symmetric[i] else ("",))]
    assert constraint_names(mech) == [table[i].name + suffix for i, suffix in published]

    sweeps = []

    def counted(*args, **kwargs):
        sweeps.append(args)
        return sweep_series(*args, **kwargs)

    monkeypatch.setattr("armwing.fitting.sweep_series", counted)
    problem = _StageProblem(mech, sample_targets(12), "humerus", FitOptions())
    assert sweeps == []
    assert np.array_equal(problem.symmetric, symmetric)
    # The descent gets the entries a live slot moves: symmetry entries as
    # equalities, the rest as inequalities, each in table order.
    moved = [i for i, entry in enumerate(table) if set(problem.slots) & set(entry.reads)]
    assert problem.eq_rows == [i for i in moved if symmetric[i]]
    assert problem.ineq_rows == [i for i in moved if not symmetric[i]]
    values = problem.constraint_vector(problem.x0)
    assert len(sweeps) == 1
    expected = [-values[i] if suffix == "-" else values[i] for i, suffix in published]
    assert np.array_equal(evaluate_constraints(mech, samples=12), expected)
    assert problem.violation(problem.x0) == max(0.0, *expected)
    jac = problem.constraint_jacobian(problem.x0)
    assert jac.shape == (len(table), len(problem.index))


def test_constraints_accept_a_candidate_design(reference):
    q = DesignVector.from_mechanism(reference)
    before = reference.parameter_values()
    moved = q.with_values(np.where(np.array(q.names) == "crank_len",
                                   q.values + 1.0, q.values))
    values = evaluate_constraints(reference, moved)
    assert reference.parameter_values() == before
    assert values.shape == evaluate_constraints(reference).shape


def test_design_vector_roundtrip(demo_fourbar):
    q = DesignVector.from_mechanism(demo_fourbar)
    assert q.names == ("ground_span", "crank_len", "coupler_len", "rocker_len")
    assert q.stages == ("fixed", "humerus", "humerus", "humerus")
    assert q.indices_for_stage("humerus") == [1, 2, 3]
    assert q.indices_for_stage("all") == [1, 2, 3]
    applied = q.apply(demo_fourbar)
    assert applied.parameter_values() == demo_fourbar.parameter_values()
    with pytest.raises(ValueError):
        q.with_values(q.upper + 1.0).apply(demo_fourbar)


def test_recovery_of_a_perturbed_fourbar():
    truth = validate_mechanism(fourbar_spec(60.0, 15.0, 55.0, 50.0))
    targets = targets_of(truth)
    start = validate_mechanism(fourbar_spec(60.0, 17.0, 48.0, 56.0))
    report = optimize_stage(start, targets, "all", FAST)
    assert report.final_cost <= 1e-8
    assert report.constraint_violation_max <= 1e-6
    recovered = report.design.as_dict()
    assert recovered["crank_len"] == pytest.approx(15.0, abs=1e-4)
    assert recovered["coupler_len"] == pytest.approx(55.0, abs=1e-4)
    assert recovered["rocker_len"] == pytest.approx(50.0, abs=1e-4)
    assert recovered["ground_span"] == 60.0


def test_reports_are_deterministic_for_a_fixed_seed():
    truth = validate_mechanism(fourbar_spec(60.0, 15.0, 55.0, 50.0))
    targets = targets_of(truth, 90)
    start = validate_mechanism(fourbar_spec(60.0, 17.0, 48.0, 56.0))
    a = optimize_stage(start, targets, "all", FAST)
    b = optimize_stage(start, targets, "all", FAST)
    assert json.dumps(report_to_dict(a)) == json.dumps(report_to_dict(b))


def test_every_start_is_recorded():
    truth = validate_mechanism(fourbar_spec(60.0, 15.0, 55.0, 50.0))
    targets = targets_of(truth, 90)
    start = validate_mechanism(fourbar_spec(60.0, 17.0, 48.0, 56.0))
    options = FitOptions(seed=3, multistarts=4, maxiter=25)
    report = optimize_stage(start, targets, "all", options)
    assert len(report.starts) == 4
    assert report.multistarts == 4
    assert report.seed == 3
    assert [r.index for r in report.starts] == [0, 1, 2, 3]
    winner = report.starts[report.winner_start]
    assert winner.feasible
    assert winner.cost == report.final_cost
    # The incumbent history never worsens.
    costs = [c for _, c in report.incumbent_history]
    assert all(b <= a for a, b in zip(costs, costs[1:]))


def test_budget_exhaustion_is_flagged_not_raised():
    truth = validate_mechanism(fourbar_spec(60.0, 15.0, 55.0, 50.0))
    targets = targets_of(truth, 90)
    start = validate_mechanism(fourbar_spec(60.0, 17.0, 48.0, 56.0))
    report = optimize_stage(
        start, targets, "all",
        FitOptions(seed=0, multistarts=1, maxiter=2, polish=False),
    )
    assert "budget_exhausted" in report.flags
    assert report.final_cost >= 0.0


def test_no_feasible_start():
    # Bounds confine every candidate to non-Grashof geometry.
    spec = fourbar_spec(50.0, 40.0, 36.0, 34.0)
    spec.parameters = [
        ParameterBinding("ground_span", "pivot:D.x", 50.0, 50.0, "fixed"),
        ParameterBinding("crank_len", "point:crank.tip.x", 38.0, 42.0, "humerus"),
        ParameterBinding("coupler_len", "point:coupler.far.x", 34.0, 38.0, "humerus"),
        ParameterBinding("rocker_len", "point:rocker.pin.x", 32.0, 36.0, "humerus"),
    ]
    mech = validate_mechanism(spec)
    targets = sample_targets(60)
    with pytest.raises(NoFeasibleStart):
        optimize_stage(mech, targets, "humerus",
                       FitOptions(seed=0, multistarts=3, maxiter=15))


def test_staged_fit_freezes_the_humerus_stage(reference):
    targets = sample_targets(360)
    options = FitOptions(seed=0, multistarts=1, maxiter=3, polish=False)
    report = optimize_armwing(reference, targets, options)
    assert list(report.stage_reports) == ["humerus", "radius"]
    humerus = report.stage_reports["humerus"].design
    final = report.stage_reports["radius"].design
    h_idx = [i for i, s in enumerate(humerus.stages) if s == "humerus"]
    for i in h_idx:
        assert final.values[i] == humerus.values[i]
    assert report.stage == "staged"
    assert report.design.names == humerus.names


def test_radius_stage_cannot_move_the_shoulder_series(reference):
    base = sweep_series(reference, 90)["theta_s_deg"]
    shoved = reference.with_parameters(
        {"ctrl_pin_x": reference.get_parameter("ctrl_pin_x") + 2.0,
         "digit_phase": reference.get_parameter("digit_phase") + 5.0}
    )
    after = sweep_series(shoved, 90)["theta_s_deg"]
    assert np.array_equal(base, after)


def test_an_optimal_nominal_design_is_its_own_single_start(demo_fourbar, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an optimal nominal design needs no descent")

    monkeypatch.setattr("armwing.fitting.minimize", never)
    report = optimize_stage(demo_fourbar, targets_of(demo_fourbar), "humerus",
                            FitOptions(multistarts=3))
    assert [s.message for s in report.starts] == ["initial design already optimal"]
    assert report.multistarts == 1
    assert report.flags == ()
    assert report.constraint_violation_max == 0.0
    assert report.final_cost == report.initial_cost
    assert np.array_equal(report.design.values, DesignVector.from_mechanism(demo_fourbar).values)


def test_a_staged_report_counts_the_starts_that_ran(reference):
    report = optimize_armwing(reference, targets_of(reference, 90), FitOptions(multistarts=4))
    assert [r.multistarts for r in report.stage_reports.values()] == [1, 1]
    assert report.multistarts == 1


def test_staged_violation_is_the_stage_measure(reference):
    """Without symmetry entries every constraint of the reference is a
    strict inequality, negative when feasible: the staged report still
    gives max(0, worst entry), as its stage reports do."""
    spec = reference.spec
    spec.symmetry = []
    mech = validate_mechanism(spec)
    targets = sample_targets(90)
    report = optimize_armwing(mech, targets,
                              FitOptions(seed=0, multistarts=1, maxiter=5, polish=False))
    fitted = report.design.apply(mech)
    assert np.max(evaluate_constraints(fitted, samples=90)) < 0.0
    assert report.constraint_violation_max == 0.0
    closing = _StageProblem(fitted, targets, "all", FitOptions())
    assert report.constraint_violation_max == closing.violation(closing.x0)
    assert report.final_cost == closing.objective(closing.x0)


def test_a_batch_of_designs_is_refused_with_a_clear_error(reference):
    batch = reference.with_parameters({"crank_len": np.array([16.0, 16.5, 17.0])})
    with pytest.raises(ValueError, match="not a batch"):
        evaluate_constraints(batch, samples=36)
    with pytest.raises(ValueError, match="not a batch"):
        DesignVector.from_mechanism(batch)


# The moved parameters of each reference stage that nothing a fit reads depends on.
DEAD = {
    "humerus": ["mem_anchor_x", "mem_anchor_y"],
    "radius": ["radius_len", "radius_tip_y", "digit_len", "digit_tip_y", "digit_ratio",
               "digit_phase"],
}


def test_a_stage_differentiates_only_what_it_moves(reference, demo_fourbar):
    """A stage differentiates only its live directions: 12 of 14 in the
    humerus stage, 12 of 18 in the radius stage, 24 of 32 in 'all', and all
    3 of the demo's; a symmetry equality on mem_anchor_x makes it live.
    Both Jacobians have a column per live direction.  The radius pass skips
    the crank step and the humerus dyad, and 6 of the 8 constraint entries
    get exact zero rows.  No differentiated output reads gear_dg or the
    digit."""
    kept = [(kind, getattr(step, "joint", None) or getattr(step, "closure", None) or step.id)
            for kind, step in reference.tangent_steps]
    assert kept == [("tree", "j1_drive"), ("gear", "gear_rc"), ("tree", "j0_rcrank"),
                    ("dyad", "j4_wrist"), ("dyad", "j7_ctrl")]
    targets = sample_targets(36)
    cases = [(reference, "humerus", DEAD["humerus"]), (reference, "radius", DEAD["radius"]),
             (reference, "all", DEAD["humerus"] + DEAD["radius"]), (demo_fourbar, "humerus", [])]
    held = reference.spec
    held.symmetry = [*held.symmetry, SymmetryConstraint(
        "mem_held", "point:humerus.mem.x", reference.get_parameter("mem_anchor_x"))]
    cases.append((validate_mechanism(held), "humerus", ["mem_anchor_y"]))
    for mech, stage, dead in cases:
        problem = _StageProblem(mech, targets, stage, FitOptions())
        tagged = problem.base.indices_for_stage(stage)
        names = problem.base.names
        assert [names[i] for i in tagged if i not in problem.index] == dead
        assert problem.index == [i for i in tagged if names[i] not in dead]
        assert problem.slots == [mech._targets[names[i]] for i in problem.index]
        assert np.array_equal(np.flatnonzero(problem.dgeom), np.ravel_multi_index(
            (range(len(problem.slots)), problem.slots), problem.dgeom.shape))
        assert np.all(problem.dgeom[problem.dgeom != 0.0] == 1.0)
        point = problem.at(problem.x0)
        for jac in (point.residual_jacobian, point.constraint_jacobian):
            assert jac.shape[1] == len(tagged) - len(dead)

    problem = _StageProblem(reference, targets, "radius", FitOptions())
    sol = sweep_series(reference, 36)["_solution"]
    t = _tangents(sol, problem.dgeom)
    skipped = [label for label, (kind, step) in zip(kept, reference.tangent_steps)
               if all(np.ndim(getattr(t, table)[key]) == 0 for table, key in _results(kind, step))]
    assert skipped == [("tree", "j1_drive"), ("dyad", "j4_wrist")]
    moves = problem.dgeom != 0.0
    live = [bool(moves[:, list(entry.reads)].any()) for entry in reference.constraints]
    assert live == [False, True, False, False, False, True, False, False]
    jac = problem.constraint_jacobian(problem.x0)
    assert not np.any(jac[~np.array(live)]) and np.all(np.any(jac[live], axis=1))


def _full_pass(problem, x):
    """The stage's (residual, constraint) Jacobians at x from one tangent
    pass over every stage-tagged direction, live or dead: a column per
    stage-tagged parameter."""
    point = problem.at(x)
    m, series = point.graph, point.series
    tagged = problem.base.indices_for_stage(problem.stage)
    dgeom = np.zeros((len(tagged), m.geom.size))
    dgeom[range(len(tagged)), [m._targets[problem.base.names[i]] for i in tagged]] = 1.0
    full = sweep_tangents(series, dgeom)
    return (_stage_jacobian(series, full, problem.targets, problem.stage),
            _constraint_core(m, series, full, dgeom)[1])


@pytest.mark.parametrize("name, stage", [("reference", "humerus"), ("reference", "radius"),
                                         ("reference", "all"), ("demo", "humerus")])
def test_live_directions_give_the_full_pass_jacobians(name, stage, reference, demo_fourbar):
    """A stage's Jacobians from its live directions equal the live columns
    of one pass over every stage-tagged direction, bit for bit once -0.0
    reads as +0.0, and that pass's dead columns are exact zeros, at x0 and
    at four box points, some of which fail to assemble."""
    mech = reference if name == "reference" else demo_fourbar
    targets = sample_targets(36)
    problem = _StageProblem(mech, targets, stage, FitOptions())
    tagged = problem.base.indices_for_stage(stage)
    live = [k for k, i in enumerate(tagged) if i in problem.index]
    dead = [k for k, i in enumerate(tagged) if i not in problem.index]
    assert len(dead) == ({"humerus": 2, "radius": 6, "all": 8}[stage] if name == "reference" else 0)
    rng = np.random.default_rng(1)
    span = problem.upper - problem.lower
    points = [problem.x0] + [problem.lower + rng.uniform(size=span.size) * span for _ in range(4)]
    assembled = []
    for x in points:
        point = problem.at(x)
        jacobians = (point.residual_jacobian, point.constraint_jacobian)
        for got, full in zip(jacobians, _full_pass(problem, x)):
            assert np.array_equal(got + 0.0, full[:, live] + 0.0)
            assert np.all(full[:, dead] == 0.0)
        assembled.append(bool(np.all(point.series["ok"])))
    assert assembled[0] and not all(assembled)


def test_the_radius_stage_hands_slsqp_no_symmetry_entry_and_no_zero_row(reference,
                                                                       monkeypatch):
    """The reference's symmetry equalities read humerus slots only, so the
    radius stage's SLSQP call gets inequalities alone, on the two entries
    its live slots move, with no all-zero Jacobian row at its start."""
    calls = []

    def spy(fun, x0, **kwargs):
        calls.append((x0, kwargs["constraints"]))
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr("armwing.fitting.minimize", spy)
    optimize_stage(reference, sample_targets(36), "radius",
                   FitOptions(seed=0, multistarts=1, maxiter=2, polish=False))
    [(x0, constraints)] = calls
    assert [c["type"] for c in constraints] == ["ineq"]
    assert x0.shape == (12,)
    jac = constraints[0]["jac"](x0)
    assert jac.shape == (2, 12)
    assert np.all(np.any(jac != 0.0, axis=1))


@pytest.mark.parametrize("path, stage", [(REFERENCE_PATH, "humerus"), (REFERENCE_PATH, "radius"),
                                         (DEMO_PATH, "humerus")],
                         ids=["reference-humerus", "reference-radius", "demo-humerus"])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**16), polish=st.booleans())
def test_a_short_stage_fit_ends_feasible_or_raises(path, stage, data, seed, polish):
    """On perturbed designs, a short stage fit either raises NoFeasibleStart
    or ends with a feasible winner, and gives the same report bytes twice.
    From a feasible design it never raises, and its winner costs no more
    than that design."""
    mech = data.draw(perturbed_designs(path), label="design")
    targets = sample_targets(36)
    options = FitOptions(seed=seed, multistarts=2, maxiter=5, polish=polish)
    start = _StageProblem(mech, targets, stage, options)
    feasible_start = start.feasible(start.x0)
    try:
        report = optimize_stage(mech, targets, stage, options)
    except NoFeasibleStart:
        assert not feasible_start
        return
    assert report.starts[report.winner_start].feasible
    assert report.constraint_violation_max <= FEASIBILITY_TOL
    fitted = report.design.apply(mech)
    assert np.max(evaluate_constraints(fitted, samples=36)) <= FEASIBILITY_TOL
    again = optimize_stage(mech, targets, stage, options)
    assert json.dumps(report_to_dict(again)) == json.dumps(report_to_dict(report))
    if feasible_start:
        assert report.final_cost <= start.objective(start.x0) == report.initial_cost


def test_a_stage_with_no_live_parameter_descends_nowhere(reference, monkeypatch):
    """When every parameter a stage moves is dead, nothing descends: the
    nominal design is the single start."""
    def never(*args, **kwargs):
        raise AssertionError("a stage with no live parameter needs no descent")

    monkeypatch.setattr("armwing.fitting.minimize", never)
    spec = reference.spec
    for binding in spec.parameters:
        if binding.stage == "humerus" and binding.name not in DEAD["humerus"]:
            binding.stage = "fixed"
    mech = validate_mechanism(spec)
    report = optimize_stage(mech, sample_targets(36), "humerus", FitOptions(multistarts=3))
    assert [s.message for s in report.starts] == ["no stage parameter moves a fitted output"]
    assert report.final_cost == report.initial_cost > 0.0
    assert np.array_equal(report.design.values, DesignVector.from_mechanism(mech).values)


def test_a_radius_polish_evaluates_no_constraint_in_its_residual_calls(reference, monkeypatch):
    """The polish reads residuals and their Jacobian alone: none of its
    residual_vector or residual_jacobian calls evaluates the constraint
    vector, which a trial point computes when first read."""
    calls = []
    core = _constraint_core

    def counted(*args, **kwargs):
        calls.append(len(args))
        return core(*args, **kwargs)

    inside = {"residual_vector": [], "residual_jacobian": []}

    def watched(name, fn):
        def call(x):
            before = len(calls)
            out = fn(x)
            inside[name].append(len(calls) - before)
            return out
        return call

    def spy(fun, x0, jac, **kwargs):
        return least_squares(watched("residual_vector", fun), x0,
                             jac=watched("residual_jacobian", jac), **kwargs)

    monkeypatch.setattr("armwing.fitting._constraint_core", counted)
    monkeypatch.setattr("armwing.fitting.least_squares", spy)
    optimize_stage(reference, sample_targets(36), "radius",
                   FitOptions(seed=0, multistarts=1, maxiter=10, polish=True))
    assert len(inside["residual_vector"]) > 5 and len(inside["residual_jacobian"]) > 5
    assert not any(inside["residual_vector"] + inside["residual_jacobian"])
    assert calls


def _labels(steps) -> list[tuple[str, str]]:
    return [(kind, getattr(step, "joint", None) or getattr(step, "closure", None) or step.id)
            for kind, step in steps]


def test_every_stage_fit_solves_its_own_frozen_steps(reference, monkeypatch):
    """The radius stage freezes the crank and the humerus dyad, the steps no
    live slot reaches; the humerus and 'all' stages freeze nothing.  Every
    optimize_stage call solves its own frozen steps: two graphs that differ
    only in crank_len, a humerus slot the humerus dyad reads, each get trial
    sweeps equal to their own plain sweeps, and one graph's frozen solution
    is refused by the other's sweep."""
    targets = sample_targets(36)
    for stage in ("humerus", "all"):
        assert _StageProblem(reference, targets, stage, FitOptions()).frozen is None
    problem = _StageProblem(reference, targets, "radius", FitOptions())
    assert _labels(problem.frozen.steps) == [("tree", "j1_drive"), ("dyad", "j4_wrist")]
    slot = reference._targets["crank_len"]
    assert slot in dict(problem.frozen.steps)["dyad"].reads

    sweeps = []

    def spy(mech, samples, strict=True, method="auto", **kwargs):
        series = sweep_series(mech, samples, strict, method, **kwargs)
        sweeps.append((mech, kwargs["_frozen"], series))
        return series

    monkeypatch.setattr("armwing.fitting.sweep_series", spy)
    options = FitOptions(seed=0, multistarts=2, maxiter=3, polish=False)
    frozen, graphs = [], []
    for crank_len in (reference.get_parameter("crank_len"), 20.5):
        mech = reference.with_parameters({"crank_len": crank_len})
        first = len(sweeps)
        optimize_stage(mech, targets, "radius", options)
        calls = sweeps[first:]
        assert len(calls) > 3 and len({id(f) for _, f, _ in calls}) == 1
        for graph, _, series in calls:
            assert graph.get_parameter("crank_len") == crank_len
            plain = sweep_series(graph, 36, strict=False)
            assert _same_bits({k: series[k] for k in series if k != "_solution"},
                              {k: plain[k] for k in plain if k != "_solution"})
        frozen.append(calls[0][1])
        graphs.append(calls[0][0])
    assert frozen[0] is not frozen[1]
    assert not np.array_equal(frozen[0].margin["j4_wrist"], frozen[1].margin["j4_wrist"])
    with pytest.raises(ValueError, match="read-sets"):
        sweep_series(graphs[1], 36, strict=False, _frozen=frozen[0])


def test_a_dropped_stage_problem_is_freed_at_once(reference):
    """A stage problem and its trial point hold no reference cycle: dropping
    the problem frees its frozen solution and its last point's sweep without
    the cycle collector, read Jacobians or not."""
    for read in (False, True):
        gc.disable()
        try:
            problem = _StageProblem(reference, sample_targets(12), "radius", FitOptions())
            point = problem.at(problem.x0)
            if read:
                point.constraint_jacobian, point.residual_jacobian
            refs = [weakref.ref(problem.frozen), weakref.ref(point.series["_solution"])]
            del problem, point
            assert all(ref() is None for ref in refs), read
        finally:
            gc.enable()
