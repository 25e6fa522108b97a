from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest

from armwing import (
    AngleOutput,
    Driver,
    FourBar,
    GearCoupling,
    GroundPivot,
    Joint,
    Link,
    LinkageSpec,
    NotAssemblable,
    ParameterBinding,
    SchemaError,
    evaluate_constraints,
    fourbar_spec,
    mirror_mechanism,
    parse_mechanism_file,
    solve_configuration,
    solve_fourbar,
    sweep_gait,
    sweep_series,
    trajectory_csv_text,
    validate_mechanism,
)
from armwing.gait import phase_grid
from armwing.solver import _solve_steps, wrap_pi

from conftest import DEMO_PATH, REFERENCE_PATH


def test_general_solver_reduces_to_fourbar(demo_fourbar):
    fb = FourBar(50.0, 20.0, 60.0, 40.0)
    phi = phase_grid(360)
    pose = solve_fourbar(fb, phi)
    series = sweep_series(demo_fourbar, 360)
    rocker = np.radians(series["theta_s_deg"])
    coupler = np.radians(series["theta_e_deg"])
    assert float(np.max(np.abs(wrap_pi(rocker - pose.theta_rocker)))) <= 1e-9
    assert float(np.max(np.abs(wrap_pi(coupler - pose.theta_coupler)))) <= 1e-9
    assert float(np.max(np.abs(series["tip"] - pose.coupler_pin))) <= 1e-9


def test_newton_matches_analytic(demo_fourbar):
    analytic = sweep_series(demo_fourbar, 120, method="analytic")
    newton = sweep_series(demo_fourbar, 120, method="newton")
    assert float(np.max(np.abs(analytic["free"] - newton["free"]))) <= 1e-9
    # Newton stops at a 1e-9 mm residual, so positions match to about that.
    assert float(np.max(np.abs(analytic["tip"] - newton["tip"]))) <= 1e-6


def test_newton_matches_analytic_on_the_armwing(reference):
    analytic = sweep_series(reference, 36, method="analytic")
    newton = sweep_series(reference, 36, method="newton")
    assert float(np.max(np.abs(analytic["free"] - newton["free"]))) <= 1e-9


@pytest.mark.parametrize("method", ["newtn", "Analytic", ""])
def test_every_route_rejects_an_unknown_method(demo_fourbar, method):
    for solve in (lambda: solve_configuration(demo_fourbar, 0.0, method=method),
                  lambda: sweep_series(demo_fourbar, 36, method=method),
                  lambda: sweep_gait(demo_fourbar, 36, method=method)):
        with pytest.raises(ValueError, match="unknown method"):
            solve()


def test_solve_configuration_accepts_home_pose_guess(reference):
    config = solve_configuration(reference, 0.0, method="newton",
                                 guess=reference.home_pose)
    assert config.residual_norm <= 1e-9
    direct = solve_configuration(reference, 0.0)
    for jid, angle in direct.joint_angles.items():
        assert abs(wrap_pi(config.joint_angles[jid] - angle)) <= 1e-9


def test_sweep_invariants_on_the_reference(reference):
    traj = sweep_gait(reference, 360)
    assert traj.wrap_deviation_rad == 0.0
    assert traj.max_step_rad < math.radians(15.0)
    assert traj.residual_max <= 1e-9
    assert len(traj) == 360
    assert len(traj.configurations) == 360
    assert traj.tip_path.shape == (360, 2)
    assert traj.elbow_path.shape == (360, 2)
    # Angle series are unwrapped: no single-sample jump anywhere near a turn.
    for series in (traj.theta_s_deg, traj.theta_e_deg):
        assert float(np.max(np.abs(np.diff(series)))) < 90.0


def test_coarse_grid_nests_in_the_fine_grid(reference):
    fine = sweep_gait(reference, 360)
    coarse = sweep_gait(reference, 8)
    assert np.array_equal(coarse.phi, fine.phi[::45])
    assert np.array_equal(coarse.tip_path, fine.tip_path[::45])
    assert np.array_equal(coarse.theta_s_deg, fine.theta_s_deg[::45])
    assert np.array_equal(coarse.theta_e_deg, fine.theta_e_deg[::45])


def test_configurations_keep_the_swept_geometry(reference):
    mech = reference.copy()
    traj = sweep_gait(mech, 36)
    mech.geom += 5.0
    for k in (0, 17):
        assert traj.configurations[k].points["wingtip"] == tuple(traj.tip_path[k])


def test_sweep_needs_at_least_eight_samples(reference):
    with pytest.raises(ValueError):
        sweep_gait(reference, 7)


def test_mirrored_sweep_reflects_the_tip_path(reference):
    base = sweep_gait(reference, 360)
    mirrored = sweep_gait(mirror_mechanism(reference), 360)
    assert float(np.max(np.abs(mirrored.theta_s_deg - base.theta_s_deg))) <= 1e-9
    assert float(np.max(np.abs(mirrored.theta_e_deg - base.theta_e_deg))) <= 1e-9
    assert float(np.max(np.abs(mirrored.tip_path[:, 0] + base.tip_path[:, 0]))) <= 1e-9
    assert float(np.max(np.abs(mirrored.tip_path[:, 1] - base.tip_path[:, 1]))) <= 1e-9


def test_point_output_on_a_ground_pivot_keeps_its_shape():
    spec = fourbar_spec(60.0, 15.0, 55.0, 50.0)
    spec.point_outputs["elbow"] = ("ground", "D")
    mech = validate_mechanism(spec)
    series = sweep_series(mech, 12)
    assert series["elbow"].shape == (12, 2) and series["elbow"].dtype == np.float64
    assert np.all(series["elbow"] == [60.0, 0.0])
    batch = mech.copy()
    batch.geom = np.stack([mech.geom, mech.geom])
    assert sweep_series(batch, 12)["elbow"].shape == (2, 12, 2)
    assert len(trajectory_csv_text(sweep_gait(mech, 12)).splitlines()) == 13


def test_dyad_between_two_ground_pivots_keeps_the_sample_axis():
    """A rigid dyad hung from two ground pivots is placed the same at every
    sample, and its results still carry the sample axis."""
    spec = fourbar_spec(60.0, 15.0, 55.0, 50.0)
    spec.ground_pivots += [GroundPivot("E", 0.0, 40.0), GroundPivot("F", 30.0, 40.0)]
    spec.links += [Link("s1", {"a": np.array([0.0, 0.0]), "h": np.array([20.0, 0.0])}),
                   Link("s2", {"b": np.array([0.0, 0.0]), "h": np.array([20.0, 0.0])})]
    spec.joints += [Joint("j_e", ("ground", "E"), ("s1", "a")),
                    Joint("j_f", ("ground", "F"), ("s2", "b")),
                    Joint("j_h", ("s1", "h"), ("s2", "h"))]
    series = sweep_series(validate_mechanism(spec), 12)
    for table in ("margin", "transmission"):
        assert series[table]["j_h"].shape == (12,)
        assert np.all(series[table]["j_h"] == series[table]["j_h"][0])
    assert series["residual"].shape == (12,) and float(np.max(series["residual"])) <= 1e-9


def test_strict_sweep_names_the_failing_phase(reference):
    stretched = reference.with_parameters({"crank_len": 31.0})
    with pytest.raises(NotAssemblable) as err:
        sweep_gait(stretched, 360)
    assert "phi=" in str(err.value)


def test_non_strict_sweep_masks_failures(reference):
    stretched = reference.with_parameters({"crank_len": 31.0})
    series = sweep_series(stretched, 360, strict=False)
    ok = series["ok"]
    assert not np.all(ok) and np.any(ok)
    # A sample fails exactly where some loop's transmission is NaN.
    trans = np.stack([np.asarray(t) for t in series["transmission"].values()])
    assert np.array_equal(np.all(np.isfinite(trans), axis=0), ok)
    # Failed samples show a positive assembly margin in some loop.
    margins = np.stack([np.asarray(m) for m in series["margin"].values()])
    assert np.all(np.nanmax(margins[:, ~ok], axis=0) > 0.0)


@pytest.mark.parametrize("method", ["analytic", "newton"])
def test_a_dropped_sweep_is_freed_at_once(reference, method):
    """A sweep's result holds no reference cycle: dropping it frees its
    solution without the cycle collector, read entries or not, so batched
    sensitivity passes keep one pass in memory at a time."""
    for read in ([], ["ok", "tip"], ["max_step_rad", "theta_s_deg", "residual"]):
        gc.disable()
        try:
            series = sweep_series(reference, 12, method=method)
            for key in read:
                series[key]
            solution = weakref.ref(series["_solution"])
            del series
            assert solution() is None, read
        finally:
            gc.enable()


def _frozen_radius_steps(mech) -> list:
    """The reference's steps that read no radius-stage slot: the crank and
    the humerus dyad."""
    radius = {mech._targets[b.name] for b in mech.parameters.values() if b.stage == "radius"}
    return [entry for entry in mech.steps if radius.isdisjoint(entry[1].reads)]


def test_a_frozen_solution_is_read_only_and_refuses_a_foreign_sweep(reference, demo_fourbar):
    """A frozen solution's arrays are shared by every sweep that takes it:
    none is writeable.  A sweep takes it only on its own phase grid and
    topology, on the analytic route, and with geometry equal to its own on
    the frozen steps' read-sets; geometry that differs elsewhere sweeps as
    the plain sweep does."""
    steps = _frozen_radius_steps(reference)
    frozen = _solve_steps(reference, 12, steps)
    assert frozen.steps == steps and "j4_wrist" in frozen.margin
    arrays = [frozen.ok, frozen.geom, frozen.phi, frozen.xy, frozen.theta["crank"],
              frozen.turn["crank"], frozen.margin["j4_wrist"]]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    reads = sorted({slot for _, step in steps for slot in step.reads})
    elsewhere = next(i for i in range(reference.geom.size) if i not in reads)
    moved = reference.copy()
    moved.geom[elsewhere] += 0.5
    series = sweep_series(moved, 12, strict=False, _frozen=frozen)
    plain = sweep_series(moved, 12, strict=False)
    for key in ("ok", "theta_s_deg", "theta_e_deg", "tip", "residual", "free"):
        assert series[key].tobytes() == plain[key].tobytes(), key
    moved.geom[reads[-1]] += 0.5
    with pytest.raises(ValueError, match="read-sets"):
        sweep_series(moved, 12, strict=False, _frozen=frozen)
    with pytest.raises(ValueError, match="phase grid"):
        sweep_series(reference, 36, strict=False, _frozen=frozen)
    with pytest.raises(ValueError, match="topology"):
        sweep_series(demo_fourbar, 12, strict=False, _frozen=frozen)
    with pytest.raises(ValueError, match="analytic"):
        sweep_series(reference, 12, strict=False, method="newton", _frozen=frozen)


def test_assembly_report_on_a_healthy_mechanism(reference):
    report = sweep_series(reference, 180, strict=False)
    assert bool(np.all(report["ok"]))
    for margin in report["margin"].values():
        assert float(np.max(margin)) < 0.0
    for trans in report["transmission"].values():
        assert float(np.min(trans)) > 0.0
        assert float(np.max(trans)) <= math.pi / 2.0 + 1e-12


def test_configuration_carries_named_outputs(reference):
    config = solve_configuration(reference, 1.0)
    assert "wingtip" in config.points
    assert "elbow" in config.points
    assert set(reference.free_joints) <= set(config.joint_angles)
    assert config.phase == 1.0
    assert config.residual_norm <= 1e-9


def test_grossly_overlong_crank_cannot_assemble(reference):
    spec = reference.copy().spec
    crank = next(link for link in spec.links if link.id == "crank")
    crank.points["tip"][:] = crank.points["tip"] * 10.0
    spec.parameters = [p for p in spec.parameters if p.name != "crank_len"]
    broken = validate_mechanism(spec)
    with pytest.raises(NotAssemblable) as err:
        sweep_gait(broken, 360)
    assert "cannot close" in str(err.value) or "gap" in str(err.value)


def test_driver_sign_and_offset_set_the_crank_angle(reference):
    # At phase zero the shipped crank points straight up (offset 90 deg).
    config = solve_configuration(reference, 0.0)
    tip = config.points["crank:tip"]
    root = config.points["crank:root"]
    angle = math.atan2(tip[1] - root[1], tip[0] - root[0])
    assert angle == pytest.approx(math.pi / 2.0, abs=1e-12)


def _triad_sixbar() -> LinkageSpec:
    """A crank driving a ternary link held by two grounded rockers.

    The ternary link with its two rockers forms a triad: no loop can be
    closed by a single two-link construction, so only Newton solves it.
    Each link's local frame is the world frame at the drawn pose.
    """
    xy = {
        "A": (0.0, 0.0),
        "P": (5.0, 0.0),
        "Q": (30.0, 9.5),
        "R": (43.0, -7.4),
        "S": (48.9, 25.3),
        "G3": (42.4, -31.9),
        "G2": (39.6, 59.5),
    }
    bodies = {
        "crank": ("A", "P"),
        "l5": ("P", "Q"),
        "tri": ("Q", "R", "S"),
        "l3": ("R", "G3"),
        "l2": ("S", "G2"),
    }
    links = [
        Link(lid, {name: np.array(xy[name]) for name in names})
        for lid, names in bodies.items()
    ]
    pins = [  # (point, a-side body, b-side body)
        ("A", "ground", "crank"),
        ("P", "crank", "l5"),
        ("Q", "l5", "tri"),
        ("R", "tri", "l3"),
        ("G3", "ground", "l3"),
        ("S", "tri", "l2"),
        ("G2", "ground", "l2"),
    ]
    return LinkageSpec(
        name="triad six-bar",
        links=links,
        ground_pivots=[GroundPivot(name, *xy[name]) for name in ("A", "G3", "G2")],
        joints=[Joint(f"j_{name}", (a, name), (b, name)) for name, a, b in pins],
        driver=Driver("j_A"),
        angle_outputs=[AngleOutput("theta_s", link="l3"), AngleOutput("theta_e", link="tri")],
        point_outputs={"elbow": ("l5", "Q"), "wingtip": ("tri", "S")},
    )


def _geared_fivebar() -> LinkageSpec:
    """A five-bar whose grounded rocker is geared to the crank-coupler joint.

    The gear slaves a loop joint to a free angle, so the loop-closure
    Jacobian depends on the gear ratio; no dyad closes the loop.
    """
    xy = {"A": (0.0, 0.0), "B": (10.0, 5.0), "C": (30.0, 25.0), "D": (45.0, 10.0),
          "E": (40.0, 0.0)}
    bodies = {
        "crank": ("A", "B"),
        "c1": ("B", "C"),
        "c2": ("C", "D"),
        "rocker": ("E", "D"),
    }
    links = [
        Link(lid, {name: np.array(xy[name]) for name in names})
        for lid, names in bodies.items()
    ]
    pins = [  # (joint, point, a-side body, b-side body)
        ("j_drive", "A", "ground", "crank"),
        ("j_knee", "B", "crank", "c1"),
        ("j_mid", "C", "c1", "c2"),
        ("j_rock", "E", "ground", "rocker"),
        ("j_tip", "D", "c2", "rocker"),
    ]
    return LinkageSpec(
        name="geared five-bar",
        links=links,
        ground_pivots=[GroundPivot(name, *xy[name]) for name in ("A", "E")],
        joints=[Joint(jid, (a, name), (b, name)) for jid, name, a, b in pins],
        driver=Driver("j_drive"),
        gear_couplings=[GearCoupling("g_rock", "j_knee", "j_rock", ratio=-1.5)],
        angle_outputs=[
            AngleOutput("theta_s", link="rocker"),
            AngleOutput("theta_e", link="c2"),
        ],
        point_outputs={"elbow": ("c1", "C"), "wingtip": ("c2", "D")},
    )


@pytest.mark.parametrize("spec", [
    lambda: parse_mechanism_file(REFERENCE_PATH),
    lambda: fourbar_spec(50.0, 20.0, 60.0, 40.0),
    _triad_sixbar,
    _geared_fivebar,
], ids=["reference", "fourbar", "triad", "geared-fivebar"])
def test_newton_steps_place_every_link_by_tree_and_gear_steps(spec):
    mech = validate_mechanism(spec())
    kinds = [kind for kind, _ref in mech.newton_steps]
    assert set(kinds) <= {"tree", "gear"}
    placed = [step.child for kind, step in mech.newton_steps if kind == "tree"]
    assert sorted(placed) == sorted(mech.links)
    assert sorted(step.id for kind, step in mech.newton_steps if kind == "gear") == sorted(
        coupling.id for coupling in mech.spec.gear_couplings
    )


def test_newton_only_topology_sweeps_and_constrains():
    mech = validate_mechanism(_triad_sixbar())
    assert mech.summary()["analytic_plan"] is False
    assert mech.plan is None and mech.steps is None
    series = sweep_series(mech, 72)  # strict: every sample must assemble
    assert bool(np.all(series["ok"]))
    assert float(np.max(series["residual"])) <= 1e-9
    assert series["max_step_rad"] < 0.5
    with pytest.raises(ValueError):
        sweep_series(mech, 72, method="analytic")
    with pytest.raises(ValueError):
        solve_configuration(mech, 0.0, method="analytic")
    entries = evaluate_constraints(mech, samples=36)
    assert entries.shape == (4,) and np.all(np.isfinite(entries))


@pytest.mark.parametrize("spec", [
    lambda: parse_mechanism_file(DEMO_PATH),
    _triad_sixbar,
], ids=["demo-fourbar", "triad"])
def test_a_guess_must_name_every_free_joint(spec):
    mech = validate_mechanism(spec())
    missing = next(jid for jid in mech.free_joints if jid not in mech.home_pose)
    with pytest.raises(SchemaError) as err:
        solve_configuration(mech, 1.0, guess=mech.home_pose, method="newton")
    assert err.value.field == f"guess[{missing}]"


def _crank() -> LinkageSpec:
    """One driven link and no loop: nothing is left for a solver to find."""
    return LinkageSpec(
        name="crank",
        links=[Link("crank", {"root": np.zeros(2), "tip": np.array([10.0, 0.0])})],
        ground_pivots=[GroundPivot("A", 0.0, 0.0)],
        joints=[Joint("j_drive", ("ground", "A"), ("crank", "root"))],
        driver=Driver("j_drive"),
        angle_outputs=[
            AngleOutput("theta_s", link="crank"),
            AngleOutput("theta_e", joint="j_drive"),
        ],
        point_outputs={"elbow": ("crank", "tip"), "wingtip": ("crank", "tip")},
        parameters=[ParameterBinding("crank_len", "point:crank.tip.x", 5.0, 20.0, "humerus")],
    )


def test_a_loop_free_mechanism_sweeps_alone_and_in_a_batch():
    mech = validate_mechanism(_crank())
    assert mech.free_joints == [] and mech.plan == []
    traj = sweep_gait(mech, 36)
    assert traj.max_step_rad == 0.0 and traj.wrap_deviation_rad == 0.0
    assert np.allclose(np.hypot(*traj.tip_path.T), 10.0, rtol=0.0, atol=1e-12)
    lengths = np.array([8.0, 10.0, 12.0])
    batch = sweep_gait(mech.with_parameters({"crank_len": lengths}), 36)
    assert batch.tip_path.shape == (3, 36, 2)
    for b, length in enumerate(lengths):
        alone = sweep_gait(mech.with_parameters({"crank_len": length}), 36)
        for name in ("theta_s_deg", "theta_e_deg", "elbow_path", "tip_path"):
            assert getattr(batch, name)[b].tobytes() == getattr(alone, name).tobytes()
        for name in ("max_step_rad", "wrap_deviation_rad", "residual_max"):
            assert getattr(batch, name)[b] == getattr(alone, name) == 0.0
    # Newton and configurations solve one design at a time.
    with pytest.raises(ValueError):
        sweep_series(mech.with_parameters({"crank_len": lengths}), 36, method="newton")
    with pytest.raises(ValueError):
        batch.configurations[0]
