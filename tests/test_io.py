from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from armwing import (
    ArmwingError,
    FitOptions,
    GridMismatch,
    MechanismSyntaxError,
    SchemaError,
    VersionError,
    fourbar_spec,
    optimize_stage,
    parse_mechanism_file,
    parse_mechanism_text,
    read_trajectory_csv,
    sample_targets,
    sweep_gait,
    sweep_series,
    targets_from_trajectory,
    validate_mechanism,
    write_mechanism_file,
    write_trajectory_csv,
)
from armwing.io import (
    TRAJECTORY_COLUMNS,
    mechanism_to_dict,
    report_to_dict,
    trajectory_csv_text,
    write_report_file,
)

from conftest import DEMO_PATH, REFERENCE_PATH


def test_mechanism_roundtrip_is_byte_identical(tmp_path: Path):
    for source in (REFERENCE_PATH, DEMO_PATH):
        spec = parse_mechanism_file(source)
        first = tmp_path / f"{source.stem}_1.json"
        second = tmp_path / f"{source.stem}_2.json"
        write_mechanism_file(spec, first)
        write_mechanism_file(parse_mechanism_file(first), second)
        assert first.read_bytes() == second.read_bytes()


def test_bundled_files_are_in_canonical_form(tmp_path: Path):
    # The shipped fixtures were written by write_mechanism_file; reparsing
    # and rewriting them must reproduce them exactly.
    for source in (REFERENCE_PATH, DEMO_PATH):
        out = tmp_path / source.name
        write_mechanism_file(parse_mechanism_file(source), out)
        assert out.read_bytes() == source.read_bytes()


def test_mechanism_dict_key_order():
    spec = parse_mechanism_file(REFERENCE_PATH)
    doc = mechanism_to_dict(spec)
    assert list(doc)[:2] == ["format_version", "name"]
    assert doc["format_version"] == 1
    text = json.dumps(doc, indent=2)
    assert text.index('"links"') < text.index('"joints"')


def test_syntax_error_carries_line_and_column():
    with pytest.raises(MechanismSyntaxError) as err:
        parse_mechanism_text('{"format_version": 1,\n  "name": }\n')
    assert err.value.line == 2
    assert err.value.column > 0
    assert "line 2" in str(err.value)


def test_version_check():
    with pytest.raises(VersionError):
        parse_mechanism_text('{"format_version": 99, "name": "x"}')
    with pytest.raises(VersionError):
        parse_mechanism_text('{"name": "x"}')


def test_unknown_top_level_key_rejected():
    doc = mechanism_to_dict(fourbar_spec(50.0, 20.0, 60.0, 40.0))
    doc["wingspan"] = 1.0
    with pytest.raises(SchemaError) as err:
        parse_mechanism_text(json.dumps(doc))
    assert "wingspan" in str(err.value)


def test_wrong_typed_section_rejected():
    doc = mechanism_to_dict(fourbar_spec(50.0, 20.0, 60.0, 40.0))
    doc["links"] = "oops"
    with pytest.raises(SchemaError):
        parse_mechanism_text(json.dumps(doc))


def test_trajectory_roundtrip_is_byte_identical(tmp_path: Path, demo_fourbar):
    traj = sweep_gait(demo_fourbar, 90)
    first = tmp_path / "traj_1.csv"
    second = tmp_path / "traj_2.csv"
    write_trajectory_csv(traj, first)
    data = read_trajectory_csv(first)
    assert first.read_text().splitlines()[0] == ",".join(TRAJECTORY_COLUMNS)
    # Rewriting the parsed numbers reproduces the file byte for byte.
    rewritten = [",".join(TRAJECTORY_COLUMNS)]
    for k in range(len(data["phi_deg"])):
        rewritten.append(
            ",".join("%.12g" % data[c][k] for c in TRAJECTORY_COLUMNS)
        )
    second.write_text("\n".join(rewritten) + "\n")
    assert first.read_bytes() == second.read_bytes()


def test_trajectory_header_and_rows_validated(tmp_path: Path):
    bad = tmp_path / "bad.csv"
    bad.write_text("phi_deg,theta_s_deg\n0,1\n")
    with pytest.raises(SchemaError):
        read_trajectory_csv(bad)
    bad.write_text(",".join(TRAJECTORY_COLUMNS) + "\n1,2,3\n")
    with pytest.raises(SchemaError):
        read_trajectory_csv(bad)
    bad.write_text(",".join(TRAJECTORY_COLUMNS) + "\n0,0,0,0,0,0,oops\n")
    with pytest.raises(SchemaError):
        read_trajectory_csv(bad)
    bad.write_text(
        ",".join(TRAJECTORY_COLUMNS)
        + "\n10,0,0,0,0,0,0\n5,0,0,0,0,0,0\n"
    )
    with pytest.raises(SchemaError):
        read_trajectory_csv(bad)
    for cell in ("nan", "inf", "-inf"):
        bad.write_text(",".join(TRAJECTORY_COLUMNS) + f"\n0,{cell},0,0,0,0,0\n")
        with pytest.raises(SchemaError) as err:
            read_trajectory_csv(bad)
        assert err.value.field == "row 2"


def test_targets_from_trajectory_reconstructs_the_exact_grid(
    tmp_path: Path, demo_fourbar
):
    traj = sweep_gait(demo_fourbar, 360)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    targets = targets_from_trajectory(read_trajectory_csv(path))
    assert np.array_equal(targets.phi, sample_targets(360).phi)
    assert np.allclose(targets.shoulder_deg, traj.theta_s_deg, atol=1e-9)
    assert np.allclose(targets.elbow_deg, traj.theta_e_deg, atol=1e-9)
    assert targets.shape is None


def test_targets_from_trajectory_rejects_off_grid_phases():
    data = {
        "phi_deg": np.array([0.0, 90.0, 180.0, 271.0]),
        "theta_s_deg": np.zeros(4),
        "theta_e_deg": np.zeros(4),
    }
    with pytest.raises(GridMismatch):
        targets_from_trajectory(data)


def test_trajectory_text_rejects_empty():
    class Hollow:
        phi = np.array([])
        theta_s_deg = np.array([])
        theta_e_deg = np.array([])
        elbow_path = np.zeros((0, 2))
        tip_path = np.zeros((0, 2))

    with pytest.raises(ValueError):
        trajectory_csv_text(Hollow())


def test_report_file_roundtrip(tmp_path: Path, demo_fourbar):
    targets = sample_targets(60)
    report = optimize_stage(
        demo_fourbar, targets, "humerus",
        FitOptions(seed=0, multistarts=1, maxiter=5, polish=False),
    )
    doc = report_to_dict(report)
    assert doc["stage"] == "humerus"
    assert doc["design"]["names"] == list(report.design.names)
    assert doc["design"]["values"] == [float(v) for v in report.design.values]
    path = tmp_path / "report.json"
    write_report_file(report, path)
    loaded = json.loads(path.read_text())
    assert loaded["final_cost_deg2"] == report.final_cost
    assert loaded["seed"] == 0
    assert len(loaded["starts"]) == 1


def _reference_doc() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def test_angle_output_reference_must_be_a_string():
    doc = _reference_doc()
    doc["outputs"]["angles"]["theta_s"]["link"] = ["humerus"]
    with pytest.raises(SchemaError) as err:
        parse_mechanism_text(json.dumps(doc))
    assert err.value.field == "outputs.angles.theta_s.link"


def _rename(record: dict, key: str, misspelt: str) -> None:
    record[misspelt] = record.pop(key)


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc["links"][0].update(lenght=30.0), "links[0].lenght"),
        (lambda doc: _rename(doc["ground_pivots"][1], "y", "yy"), "ground_pivots[1].yy"),
        (lambda doc: _rename(doc["joints"][2], "b", "B"), "joints[2].B"),
        (lambda doc: _rename(doc["driver"], "offset_deg", "offest_deg"), "driver.offest_deg"),
        (
            lambda doc: _rename(doc["gear_couplings"][0], "offset_deg", "offset_dge"),
            "gear_couplings[0].offset_dge",
        ),
        (
            lambda doc: _rename(doc["outputs"]["angles"]["theta_e"], "sign", "sgn"),
            "outputs.angles.theta_e.sgn",
        ),
        (lambda doc: _rename(doc["outputs"], "points", "point"), "outputs.point"),
        (lambda doc: _rename(doc["parameters"][3], "stage", "stages"), "parameters[3].stages"),
        (lambda doc: _rename(doc["symmetry"][1], "value", "val"), "symmetry[1].val"),
    ],
    ids=["links", "ground_pivots", "joints", "driver", "gear_couplings", "outputs_angles",
         "outputs", "parameters", "symmetry"],
)
def test_misspelt_keys_name_their_path(edit, field):
    doc = _reference_doc()
    edit(doc)
    with pytest.raises(SchemaError) as err:
        parse_mechanism_text(json.dumps(doc))
    assert err.value.field == field
    assert err.value.detail == "unknown key"


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc["links"][0].update(length=None), "links[0].length"),
        (
            lambda doc: doc["outputs"]["angles"]["theta_s"].update(link=None),
            "outputs.angles.theta_s.link",
        ),
    ],
    ids=["link_length", "angle_output_link"],
)
def test_null_values_are_rejected(edit, field):
    doc = _reference_doc()
    edit(doc)
    with pytest.raises(SchemaError) as err:
        parse_mechanism_text(json.dumps(doc))
    assert err.value.field == field


def test_non_finite_numbers_name_their_field():
    doc = _reference_doc()
    doc["links"][0]["points"]["root"][0] = float("nan")
    with pytest.raises(SchemaError) as err:
        parse_mechanism_text(json.dumps(doc))
    assert err.value.field == "links[0].points.root"
    doc = _reference_doc()
    doc["ground_pivots"][1]["y"] = float("inf")
    with pytest.raises(SchemaError) as err:
        parse_mechanism_text(json.dumps(doc))
    assert err.value.field == "ground_pivots[1].y"


HUGE = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc["ground_pivots"][1].update(x=HUGE), "ground_pivots[1].x"),
        (
            lambda doc: doc["links"][0]["points"]["tip"].__setitem__(1, -HUGE),
            "links[0].points.tip",
        ),
        (lambda doc: doc["home_pose_deg"].update(j2_shoulder=HUGE), "home_pose_deg.j2_shoulder"),
        (lambda doc: doc["parameters"][0].update(min=HUGE), "parameters[0].min"),
    ],
    ids=["pivot", "link_point", "home_pose", "parameter_min"],
)
def test_huge_integers_are_schema_errors(edit, field):
    doc = _reference_doc()
    edit(doc)
    with pytest.raises(SchemaError) as err:
        parse_mechanism_text(json.dumps(doc))
    assert err.value.field == field
    assert "must be finite" in str(err.value)


_DELETE = object()


def _nodes(node, path=()):
    """(path, value) of every key and element below ``node``, depth first."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in children:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _single_field_mutations(doc: dict):
    """(path, new value, must fail) for every one-field edit of ``doc``.

    A number set to a non-number, a boolean or an integer beyond the float
    range must be rejected.  Deletions and edits of strings and containers
    may leave a valid document, so those need only fail cleanly.
    """
    for path, value in _nodes(doc):
        yield path, _DELETE, False
        if isinstance(value, (int, float)):
            for bad in ("1.0", None, [1.0], {"x": 1.0}, True, 10**400):
                yield path, bad, True
        elif isinstance(value, str):
            for bad in (1.0, "", "nolink:nopoint", None):
                yield path, bad, False
        else:
            for bad in ([], {}, "x", None):
                yield path, bad, False


def test_every_single_field_mutation_ends_in_an_armwing_error():
    text = REFERENCE_PATH.read_text()
    escapes = []
    count = 0
    for path, value, must_fail in _single_field_mutations(json.loads(text)):
        count += 1
        doc = json.loads(text)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        try:
            mech = validate_mechanism(parse_mechanism_text(json.dumps(doc)))
            sweep_series(mech, 8, strict=False)
        except ArmwingError:
            continue
        except Exception as exc:  # noqa: BLE001 - any other class is the finding
            escapes.append((path, value, repr(exc)))
            continue
        if must_fail:
            escapes.append((path, value, "accepted"))
    assert count > 2000
    assert escapes == []
