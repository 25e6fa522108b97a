from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np
import pytest

import armwing.linkage
from armwing import (
    AngleOutput,
    DanglingOutput,
    DesignVector,
    Driver,
    GearCoupling,
    GroundPivot,
    Joint,
    Link,
    LinkageSpec,
    MissingDriver,
    NonPositiveLength,
    OpenChain,
    OverConstrained,
    ParameterBinding,
    SchemaError,
    SymmetryConstraint,
    UnknownParameter,
    ZeroRatio,
    evaluate_constraints,
    fourbar_spec,
    gear_couple,
    mirror_mechanism,
    parse_mechanism_file,
    solve_configuration,
    validate_mechanism,
)
from armwing.io import mechanism_to_dict

from conftest import REFERENCE_PATH


def plain_spec():
    return fourbar_spec(50.0, 20.0, 60.0, 40.0)


def test_fourbar_spec_validates_and_counts():
    mech = validate_mechanism(plain_spec())
    summary = mech.summary()
    assert summary["links"] == 3
    assert summary["joints"] == 4
    assert summary["loops"] == 1
    assert summary["free_unknowns"] == 2
    assert summary["parameters"] == 4
    assert summary["free_parameters"] == 3
    assert summary["analytic_plan"] is True
    assert mech.closures == ["j_wrist"]


def test_validate_leaves_the_input_spec_alone():
    spec = plain_spec()
    mech = validate_mechanism(spec)
    mech.set_parameter("crank_len", 25.0)
    assert float(spec.links[0].points["tip"][0]) == 20.0


def test_missing_driver():
    spec = plain_spec()
    spec.driver = None
    with pytest.raises(MissingDriver):
        validate_mechanism(spec)


def test_open_chain_when_a_loop_joint_is_removed():
    spec = plain_spec()
    spec.joints = [j for j in spec.joints if j.id != "j_wrist"]
    spec.branches = {}
    with pytest.raises(OpenChain):
        validate_mechanism(spec)


def test_disconnected_link_is_an_open_chain():
    spec = plain_spec()
    spec.links.append(Link("orphan", {"a": np.zeros(2), "b": np.array([1.0, 0.0])}))
    with pytest.raises(OpenChain):
        validate_mechanism(spec)


def test_over_constrained_when_a_loop_is_doubled():
    spec = plain_spec()
    spec.joints.append(Joint("j_pin2", ("ground", "D"), ("coupler", "far")))
    with pytest.raises(OverConstrained):
        validate_mechanism(spec)


def test_two_links_joined_twice_validate_with_no_analytic_plan():
    # Link a hangs from ground and holds link b by two joints; the crank is
    # on its own pivot.  Loop jy has two unplaced links, a and b, hinged at
    # jy, but each reaches the other through jx: no outer body is placed.
    spec = LinkageSpec(
        name="joined twice",
        links=[
            Link("crank", {"root": np.zeros(2), "tip": np.array([10.0, 0.0])}),
            Link("a", {"root": np.zeros(2), "p": np.array([10.0, 0.0]),
                       "q": np.array([20.0, 0.0])}),
            Link("b", {"p": np.zeros(2), "q": np.array([10.0, 0.0])}),
        ],
        ground_pivots=[GroundPivot("O", 0.0, 0.0), GroundPivot("C", 50.0, 0.0)],
        joints=[
            Joint("jd", ("ground", "C"), ("crank", "root")),
            Joint("ja", ("ground", "O"), ("a", "root")),
            Joint("jx", ("a", "p"), ("b", "p")),
            Joint("jy", ("a", "q"), ("b", "q")),
        ],
        driver=Driver("jd"),
        angle_outputs=[AngleOutput("theta_s", link="a"), AngleOutput("theta_e", link="b")],
        point_outputs={"elbow": ("a", "p"), "wingtip": ("b", "q")},
    )
    mech = validate_mechanism(spec)
    assert mech.closures == ["jy"]
    assert mech.free_joints == ["ja", "jx"]
    assert {body: [j.id for j in pair] for body, pair in mech.loops["jy"].items()} == {
        "a": ["jy", "jx"], "b": ["jy", "jx"]}
    assert mech.steps is None and mech.plan is None
    assert [entry.kind for entry in mech.constraints] == ["assembled", "assembled"]


def test_zero_extent_link_rejected():
    spec = plain_spec()
    spec.links[0].points["tip"][:] = 0.0
    with pytest.raises(NonPositiveLength):
        validate_mechanism(spec)


def test_gear_zero_ratio_rejected():
    assert gear_couple(0.5, 2.0, 0.25) == pytest.approx(1.25, abs=1e-15)
    assert gear_couple(0.5, -1.0) == -0.5
    with pytest.raises(ZeroRatio):
        gear_couple(0.5, 0.0)


def test_unknown_joint_reference_is_a_schema_error():
    spec = plain_spec()
    spec.joints[1] = Joint("j_knee", ("crank", "tip"), ("misspelt", "near"))
    with pytest.raises(SchemaError) as err:
        validate_mechanism(spec)
    assert "j_knee" in str(err.value)


def test_duplicate_ids_are_schema_errors():
    spec = plain_spec()
    spec.links.append(copy.deepcopy(spec.links[0]))
    with pytest.raises(SchemaError):
        validate_mechanism(spec)
    spec = plain_spec()
    spec.ground_pivots.append(GroundPivot("A", 1.0, 1.0))
    with pytest.raises(SchemaError):
        validate_mechanism(spec)


def test_dangling_angle_output():
    spec = plain_spec()
    spec.angle_outputs.append(AngleOutput("theta_x", link="phantom"))
    with pytest.raises(DanglingOutput):
        validate_mechanism(spec)


def test_dangling_point_output():
    spec = plain_spec()
    spec.point_outputs["extra"] = ("rocker", "no_such_point")
    with pytest.raises(DanglingOutput):
        validate_mechanism(spec)


def test_required_outputs_must_exist():
    spec = plain_spec()
    spec.angle_outputs = [a for a in spec.angle_outputs if a.name != "theta_e"]
    with pytest.raises(SchemaError) as err:
        validate_mechanism(spec)
    assert "theta_e" in str(err.value)
    spec = plain_spec()
    del spec.point_outputs["wingtip"]
    with pytest.raises(SchemaError):
        validate_mechanism(spec)


def test_parameter_bindings_checked_against_bounds():
    spec = plain_spec()
    spec.parameters[1] = ParameterBinding(
        "crank_len", "point:crank.tip.x", 30.0, 40.0, "humerus"
    )
    with pytest.raises(SchemaError) as err:
        validate_mechanism(spec)
    assert "outside bounds" in str(err.value)


def test_duplicate_parameter_names_rejected():
    spec = plain_spec()
    spec.parameters.append(spec.parameters[1])
    with pytest.raises(SchemaError):
        validate_mechanism(spec)


def test_unresolvable_parameter_target_rejected():
    spec = plain_spec()
    spec.parameters[1] = ParameterBinding(
        "crank_len", "point:crank.nub.x", 10.0, 30.0, "humerus"
    )
    with pytest.raises(SchemaError):
        validate_mechanism(spec)


def test_bad_stage_rejected():
    spec = plain_spec()
    spec.parameters[1] = ParameterBinding(
        "crank_len", "point:crank.tip.x", 10.0, 30.0, "forearm"
    )
    with pytest.raises(SchemaError):
        validate_mechanism(spec)


def test_symmetry_constraints_validated():
    spec = plain_spec()
    spec.symmetry = [
        SymmetryConstraint("pin_a", "pivot:A.x", 0.0),
        SymmetryConstraint("pin_a", "pivot:A.y", 0.0),
    ]
    with pytest.raises(SchemaError):
        validate_mechanism(spec)
    spec = plain_spec()
    spec.symmetry = [SymmetryConstraint("pin_a", "pivot:Z.x", 0.0)]
    with pytest.raises(SchemaError):
        validate_mechanism(spec)


def test_branch_keys_validated():
    spec = plain_spec()
    spec.branches = {"j_wrist": "sideways"}
    with pytest.raises(SchemaError):
        validate_mechanism(spec)
    spec = plain_spec()
    spec.branches = {"j_made_up": "open"}
    with pytest.raises(SchemaError):
        validate_mechanism(spec)


def test_home_pose_keys_validated():
    spec = plain_spec()
    spec.home_pose_deg = {"j_made_up": 10.0}
    with pytest.raises(SchemaError):
        validate_mechanism(spec)


def test_parameter_roundtrip_and_unknown_name():
    mech = validate_mechanism(plain_spec())
    assert mech.get_parameter("crank_len") == 20.0
    moved = mech.with_parameters({"crank_len": 22.0})
    assert moved.get_parameter("crank_len") == 22.0
    assert mech.get_parameter("crank_len") == 20.0
    values = mech.parameter_values()
    assert list(values) == ["ground_span", "crank_len", "coupler_len", "rocker_len"]
    with pytest.raises(UnknownParameter):
        mech.get_parameter("wing_area")


def test_reference_armwing_structure(reference):
    summary = reference.summary()
    assert summary["links"] == 7
    assert summary["joints"] == 9
    assert summary["ground_pivots"] == 3
    assert summary["loops"] == 2
    assert summary["free_unknowns"] == 4
    assert summary["humerus_parameters"] == 14
    assert summary["radius_parameters"] == 18
    assert summary["fixed_parameters"] == 1
    assert summary["analytic_plan"] is True
    assert reference.closures == ["j4_wrist", "j7_ctrl"]
    assert reference.free_joints == [
        "j2_shoulder",
        "j3_crankpin",
        "j5_elbow",
        "j6_rcrankpin",
    ]
    assert len(reference.spec.symmetry) == 2


def test_reference_gear_couplings_are_exact(reference):
    rng = np.random.default_rng(4)
    for phi in rng.uniform(0.0, 2.0 * math.pi, size=12):
        config = solve_configuration(reference, float(phi))
        for gear in reference.spec.gear_couplings:
            theta_in = config.joint_angles[gear.joint_in]
            theta_out = config.joint_angles[gear.joint_out]
            assert theta_out == pytest.approx(
                gear_couple(theta_in, gear.ratio, math.radians(gear.offset_deg)),
                abs=1e-12,
            )


def test_mirror_negates_x_geometry(reference):
    mirrored = mirror_mechanism(reference)
    for pivot in reference.spec.ground_pivots:
        twin = next(p for p in mirrored.spec.ground_pivots if p.id == pivot.id)
        assert twin.x == -pivot.x
        assert twin.y == pivot.y
    assert mirrored.spec.driver.sign == -reference.spec.driver.sign


def test_mirror_is_an_involution(reference):
    twice = mirror_mechanism(mirror_mechanism(reference))
    assert twice.parameter_values() == reference.parameter_values()
    for pivot, twin in zip(reference.spec.ground_pivots, twice.spec.ground_pivots):
        assert pivot.x == twin.x and pivot.y == twin.y
    for link, twin in zip(reference.spec.links, twice.spec.links):
        for name in link.points:
            assert np.array_equal(link.points[name], twin.points[name])


def test_mirror_preserves_parameter_names(reference):
    mirrored = mirror_mechanism(reference)
    assert mirrored.parameter_names() == reference.parameter_names()
    # x-coordinate bindings negate (their bounds swap along); y coordinates
    # and gear ratios carry over unchanged.
    assert mirrored.get_parameter("shoulder_x") == -reference.get_parameter(
        "shoulder_x"
    )
    assert mirrored.get_parameter("h_coupler_len") == -reference.get_parameter(
        "h_coupler_len"
    )
    assert mirrored.get_parameter("shoulder_y") == reference.get_parameter(
        "shoulder_y"
    )
    assert mirrored.get_parameter("mirror_ratio") == reference.get_parameter(
        "mirror_ratio"
    )
    before = reference.parameters["h_coupler_len"]
    after = mirrored.parameters["h_coupler_len"]
    assert (after.min, after.max) == (-before.max, -before.min)


def test_gear_ratio_zero_via_spec(reference):
    spec = copy.deepcopy(reference.spec)
    spec.gear_couplings[0].ratio = 0.0
    with pytest.raises(ZeroRatio):
        validate_mechanism(spec)


def test_cyclic_gear_couplings_are_rejected(reference):
    spec = copy.deepcopy(reference.spec)
    gears = {coupling.id: coupling for coupling in spec.gear_couplings}
    gears["gear_rc"].joint_in = "j8_digit"  # gear_dg's output
    gears["gear_dg"].joint_in = "j0_rcrank"  # gear_rc's output
    with pytest.raises(SchemaError) as err:
        validate_mechanism(spec)
    assert err.value.field == "gear_couplings"
    assert "cyclic" in err.value.detail
    assert "gear_dg" in err.value.detail and "gear_rc" in err.value.detail


def test_copy_shares_topology_and_owns_every_geometry_record(reference):
    before = mechanism_to_dict(reference.spec)
    twin = reference.copy()
    tables = ("joints", "tree_parent", "loops", "steps", "plan",
              "newton_steps", "constraints", "parameters")
    for table in tables:
        assert getattr(twin, table) is getattr(reference, table)
    assert not np.shares_memory(twin.geom, reference.geom)
    # spec is built from geom on every read: editing it changes no graph.
    spec = twin.spec
    spec.links[0].points["tip"][0] += 1.0
    spec.ground_pivots[0].x += 1.0
    spec.driver.offset_deg += 1.0
    spec.gear_couplings[0].ratio *= 2.0
    spec.gear_couplings[0].offset_deg += 1.0
    spec.angle_outputs[0].offset_deg += 1.0
    assert mechanism_to_dict(twin.spec) == before
    # Every geometry record of spec reads the copy's own geom, and nothing else.
    twin.geom[:] = np.arange(twin.geom.size) + 0.5
    assert mechanism_to_dict(reference.spec) == before
    fields = armwing.linkage._fields(twin.spec)
    assert [container[key] for _, container, key, _ in fields] == twin.geom.tolist()
    moved = mechanism_to_dict(twin.spec)
    twin.copy().set_parameter("crank_len", 17.0)
    assert mechanism_to_dict(twin.spec) == moved


def _changed(value):
    """A different value of the same kind; None becomes a number."""
    if isinstance(value, str):
        return value + "!"
    if isinstance(value, tuple):
        return value[::-1]
    return 1.0 if value is None else -value + 1.0


def _scramble(spec) -> None:
    """Change every field of every record of ``spec`` and every link point
    in place, then empty each of its lists and dicts."""
    records = [*spec.links, *spec.ground_pivots, *spec.joints, spec.driver,
               *spec.gear_couplings, *spec.angle_outputs, *spec.parameters, *spec.symmetry]
    for record in records:
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            if isinstance(value, dict):  # a link's points
                for xy in value.values():
                    xy += 1.0
                value.clear()
            else:
                setattr(record, f.name, _changed(value))
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, (list, dict)):
            value.clear()
        elif isinstance(value, str):
            setattr(spec, f.name, _changed(value))
    spec.driver = None


def test_a_graph_shares_no_mutable_object_with_any_spec():
    # validate_mechanism's argument
    spec = parse_mechanism_file(REFERENCE_PATH)
    before = mechanism_to_dict(spec)
    graph = validate_mechanism(spec)
    assert mechanism_to_dict(spec) == before  # the NaN validation writes lands in its copy
    assert mechanism_to_dict(graph.spec) == before
    values = graph.parameter_values()
    _scramble(spec)
    assert mechanism_to_dict(graph.spec) == before
    assert graph.parameter_values() == values
    # the spec a graph hands out
    _scramble(graph.spec)
    assert mechanism_to_dict(graph.spec) == before
    # mirror_mechanism's argument, down to its own records and geometry
    mirrored = mirror_mechanism(graph)
    mirrored_before = mechanism_to_dict(mirrored.spec)
    _scramble(graph._spec)
    graph.geom += 1.0
    assert mechanism_to_dict(mirrored.spec) == mirrored_before


def test_derived_graphs_never_revalidate(reference, monkeypatch):
    def rederive(*args, **kwargs):
        raise AssertionError("mechanism re-derived after validation")

    monkeypatch.setattr(armwing.linkage, "_build", rederive)
    monkeypatch.setattr(armwing.linkage, "_copy_spec", rederive)
    moved = reference.with_parameters({"crank_len": 16.0})
    assert moved.get_parameter("crank_len") == 16.0
    moved.set_parameter("crank_len", 15.0)
    assert moved.get_parameter("crank_len") == 15.0
    assert reference.copy().parameter_values() == reference.parameter_values()
    design = DesignVector.from_mechanism(reference)
    assert design.apply(reference).parameter_values() == reference.parameter_values()
    entries = evaluate_constraints(reference, design, samples=36)
    assert np.all(np.isfinite(entries))


def _step_names(steps) -> list[tuple[str, str]]:
    """(kind, tree joint, gear coupling or dyad closure) of each step record."""
    names = {"tree": "joint", "gear": "id", "dyad": "closure"}
    return [(kind, getattr(step, names[kind])) for kind, step in steps]


def test_reference_solve_order(reference):
    order = _step_names(reference.steps)
    assert order == [
        ("tree", "j1_drive"),
        ("gear", "gear_rc"),
        ("tree", "j0_rcrank"),
        ("dyad", "j4_wrist"),
        ("dyad", "j7_ctrl"),
        ("gear", "gear_dg"),
        ("tree", "j8_digit"),
    ]
    assert reference.plan == [ref for kind, ref in reference.steps if kind == "dyad"]
    # With the free angles given, tree and gear steps place every link.
    assert _step_names(reference.newton_steps) == [
        ("tree", "j1_drive"),
        ("tree", "j2_shoulder"),
        ("tree", "j3_crankpin"),
        ("tree", "j5_elbow"),
        ("gear", "gear_dg"),
        ("tree", "j8_digit"),
        ("gear", "gear_rc"),
        ("tree", "j0_rcrank"),
        ("tree", "j6_rcrankpin"),
    ]
    # Only the humerus loop is a plain four-bar; the radius loop has five joints.
    fourbars = [entry.closure for entry in reference.constraints if entry.kind == "grashof"]
    assert fourbars == ["j4_wrist"]
