from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from armwing import (
    ArmwingError,
    cli,
    parse_mechanism_file,
    read_trajectory_csv,
    sample_targets,
    write_mechanism_file,
)
from armwing.io import target_csv_text

from conftest import DEMO_PATH, REFERENCE_PATH
from test_fitting import _with_a_held_parameter
from test_solver import _geared_fivebar, _triad_sixbar


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_exits_with_usage():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_validate_reference(capsys):
    code, out, err = run(capsys, "validate", REFERENCE_PATH)
    assert code == 0
    assert "valid" in out
    assert "loops 2" in out
    assert err == ""


def test_validate_json_summary(capsys):
    code, out, _ = run(capsys, "validate", REFERENCE_PATH, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["links"] == 7
    assert doc["free_joints"] == 4
    assert doc["parameters"]["humerus"] == 14
    assert doc["parameters"]["radius"] == 18
    assert doc["valid"] is True


def test_validate_reports_domain_errors(tmp_path: Path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 99}')
    code, out, err = run(capsys, "validate", bad)
    assert code == 1
    assert err.startswith("error: VersionError:")
    code, _, err = run(capsys, "validate", tmp_path / "missing.json")
    assert code == 1
    assert err.startswith("error: IoError:")


def test_solve_prints_angles_and_points(capsys):
    code, out, _ = run(capsys, "solve", REFERENCE_PATH, "--phi", "45")
    assert code == 0
    assert "phi = 45 deg" in out
    assert "angle j2_shoulder:" in out
    assert "point wingtip:" in out
    assert "point elbow:" in out


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", REFERENCE_PATH, "--phi", "45", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["joint_angles_deg"]) >= {"j2_shoulder", "j5_elbow"}
    assert "wingtip" in doc["points_mm"]
    assert "elbow" in doc["points_mm"]
    assert doc["phi_deg"] == 45.0
    assert doc["residual_norm_mm"] < 1e-9


def test_sweep_writes_csv(tmp_path: Path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys, "sweep", "--mech", REFERENCE_PATH, "--samples", "90",
        "--out", out_csv,
    )
    assert code == 0
    data = read_trajectory_csv(out_csv)
    assert len(data["phi_deg"]) == 90
    assert "90 samples" in out


def test_sweep_to_stdout(capsys):
    code, out, _ = run(capsys, "sweep", "--mech", DEMO_PATH, "--samples", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert lines[0].startswith("phi_deg,")


def test_sweep_failure_names_the_phase(tmp_path: Path, capsys):
    spec = parse_mechanism_file(REFERENCE_PATH)
    crank = next(link for link in spec.links if link.id == "crank")
    crank.points["tip"][0] = 31.0
    binding = next(p for p in spec.parameters if p.name == "crank_len")
    binding.max = 40.0
    broken = tmp_path / "broken.json"
    write_mechanism_file(spec, broken)
    code, _, err = run(capsys, "sweep", "--mech", broken)
    assert code == 1
    assert err.startswith("error: NotAssemblable:")
    assert "phi=" in err


def test_target_emits_the_gait(tmp_path: Path, capsys):
    out_csv = tmp_path / "target.csv"
    code, _, _ = run(capsys, "target", "--samples", "360", "--out", out_csv)
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 361
    data = read_trajectory_csv(out_csv)
    assert np.array_equal(data["phi_deg"], np.arange(360.0))
    assert float(data["theta_s_deg"].min()) == -45.0
    assert float(data["theta_s_deg"].max()) == 25.0
    assert np.all(data["tip_x_mm"] == 0.0)


def test_optimize_writes_report_and_fitted_mechanism(tmp_path: Path, capsys):
    target_csv = tmp_path / "target.csv"
    code, _, _ = run(capsys, "target", "--samples", "60", "--out", target_csv)
    assert code == 0
    mech_in = tmp_path / "in.json"
    mech_in.write_bytes(DEMO_PATH.read_bytes())
    report_path = tmp_path / "fit.json"
    code, out, _ = run(
        capsys, "optimize", "--mech", mech_in, "--targets", target_csv,
        "--stage", "humerus", "--seed", "0", "--multistarts", "2",
        "--maxiter", "10", "--out", report_path,
    )
    assert code == 0
    assert report_path.exists()
    fitted = tmp_path / "fit_mechanism.json"
    assert fitted.exists()
    # The input mechanism file is never touched.
    assert mech_in.read_bytes() == DEMO_PATH.read_bytes()
    report = json.loads(report_path.read_text())
    assert report["stage"] == "humerus"
    assert report["final_cost_deg2"] <= report["initial_cost_deg2"]
    assert "stage humerus: cost" in out
    assert "deg^2" in out
    parse_mechanism_file(fitted)


def test_optimize_is_deterministic(tmp_path: Path, capsys):
    target_csv = tmp_path / "target.csv"
    run(capsys, "target", "--samples", "60", "--out", target_csv)
    outputs = []
    for tag in ("a", "b"):
        report_path = tmp_path / f"fit_{tag}.json"
        code, _, _ = run(
            capsys, "optimize", "--mech", DEMO_PATH, "--targets", target_csv,
            "--stage", "humerus", "--seed", "7", "--multistarts", "2",
            "--maxiter", "15", "--out", report_path,
        )
        assert code == 0
        outputs.append(report_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_sensitivity_rank_table(capsys):
    code, out, _ = run(
        capsys, "sensitivity", "--mech", REFERENCE_PATH, "--rank",
        "--samples", "60",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("parameter")
    assert len(lines) == 34
    assert lines[1].split()[0] == "shoulder_x"


def test_sensitivity_rank_json(capsys):
    code, out, _ = run(
        capsys, "sensitivity", "--mech", REFERENCE_PATH, "--rank",
        "--samples", "60", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 33
    assert doc[0]["parameter"] == "shoulder_x"
    assert doc[0]["score_mm_per_pct"] > doc[-1]["score_mm_per_pct"]


def test_sensitivity_family_with_plot(tmp_path: Path, capsys):
    svg = tmp_path / "family.svg"
    code, out, _ = run(
        capsys, "sensitivity", "--mech", REFERENCE_PATH,
        "--param", "crank_len", "--range", "0.95:1.05:0.025",
        "--samples", "60", "--plot", svg,
    )
    assert code == 0
    assert svg.exists()
    assert "crank_len" in out
    assert svg.read_text().startswith("<svg")


def test_sensitivity_needs_rank_or_param(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["sensitivity", "--mech", str(REFERENCE_PATH)])
    assert err.value.code == 2


def test_a_rank_of_no_parameters_prints_the_header_alone(tmp_path: Path, capsys):
    triad = tmp_path / "triad.json"
    write_mechanism_file(_triad_sixbar(), triad)
    code, out, _ = run(capsys, "sensitivity", "--mech", triad, "--rank", "--samples", "24")
    assert code == 0
    assert out == "parameter  score [mm per 1% change]\n"
    code, out, _ = run(capsys, "sensitivity", "--mech", triad, "--rank", "--samples", "24",
                       "--json")
    assert code == 0
    assert json.loads(out) == []


@pytest.mark.parametrize("build", [_triad_sixbar, _geared_fivebar], ids=["triad", "geared-fivebar"])
def test_sensitivity_runs_on_the_newton_route(build, tmp_path: Path, capsys):
    path = tmp_path / "mech.json"
    write_mechanism_file(_with_a_held_parameter(build()).spec, path)
    code, out, _ = run(capsys, "sensitivity", "--mech", path, "--rank", "--samples", "24")
    assert code == 0
    assert out.splitlines()[1].split()[0] == "pivot_x"
    code, out, _ = run(capsys, "sensitivity", "--mech", path, "--param", "pivot_x",
                       "--range", "0.99:1.01:0.01", "--samples", "24")
    assert code == 0
    assert "pivot_x" in out


def test_material_list(capsys):
    code, out, _ = run(capsys, "material", "--list")
    assert code == 0
    assert "FLX9870" in out
    assert "mooney-rivlin" in out


def test_material_check_pass_and_fail(capsys):
    code, out, _ = run(
        capsys, "material", "--check", "--strain", "43", "--material", "FLX9870"
    )
    assert code == 0
    assert "pass" in out and "+77" in out
    code, out, _ = run(
        capsys, "material", "--check", "--strain", "130", "--material", "FLX9870"
    )
    assert code == 1
    assert "FAIL" in out and "-10" in out


def test_material_unknown_name(capsys):
    code, _, err = run(
        capsys, "material", "--check", "--strain", "43", "--material", "FLX0000"
    )
    assert code == 1
    assert err.startswith("error: UnknownMaterial:")


def test_material_env_var_database(tmp_path: Path, capsys, monkeypatch):
    db = {
        "format_version": 1,
        "materials": [
            {
                "name": "FLX9870",
                "shore_a": [60.0, 70.0],
                "elongation_break_pct": [50.0, 60.0],
            }
        ],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(db))
    monkeypatch.setenv(cli.MATERIALS_ENV, str(path))
    code, out, _ = run(
        capsys, "material", "--check", "--strain", "43", "--material", "FLX9870"
    )
    assert code == 0
    assert "capacity 50%" in out


def test_material_list_of_a_bad_database_is_an_error(tmp_path: Path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]", encoding="utf-8")
    code, out, err = run(capsys, "material", "--list", "--db", path)
    assert code == 1
    assert out == ""
    assert err == f"error: SchemaError: {path}: top level must be an object, not list\n"
    entry = {"name": "x", "shore_a": [70, -60], "elongation_break_pct": [100, 200]}
    path.write_text(json.dumps({"format_version": 1, "materials": [entry]}), encoding="utf-8")
    code, out, err = run(capsys, "material", "--list", "--db", path)
    assert (code, out) == (1, "")
    assert err.startswith("error: SchemaError: materials[0].shore_a: ")


def test_plot_overlays_two_trajectories(tmp_path: Path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "sweep", "--mech", DEMO_PATH, "--samples", "24", "--out", a)
    run(capsys, "sweep", "--mech", REFERENCE_PATH, "--samples", "24", "--out", b)
    svg = tmp_path / "overlay.svg"
    code, _, _ = run(
        capsys, "plot", "--csv", a, "--csv", b, "--series", "theta_e",
        "--label", "demo", "--label", "armwing", "--out", svg,
    )
    assert code == 0
    text = svg.read_text()
    assert text.count("<polyline") >= 2
    assert "demo" in text and "armwing" in text


def test_bad_range_spec_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([
            "sensitivity", "--mech", str(REFERENCE_PATH),
            "--param", "crank_len", "--range", "1.05:0.95:0.01",
        ])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["outputs"]["angles"]["theta_s"].update(link=["humerus"]),
        lambda doc: doc["links"][0]["points"]["root"].__setitem__(0, float("nan")),
    ],
    ids=["list_reference", "nan_point"],
)
def test_validate_rejects_malformed_geometry(tmp_path: Path, capsys, edit):
    doc = json.loads(REFERENCE_PATH.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", bad)
    assert code == 1
    assert err.startswith("error: SchemaError:")


def test_validate_rejects_a_huge_integer_in_one_line(tmp_path: Path, capsys):
    doc = json.loads(REFERENCE_PATH.read_text())
    doc["ground_pivots"][0]["x"] = 10**400
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", bad)
    assert code == 1
    assert out == ""
    assert err.startswith("error: SchemaError: ground_pivots[0].x")
    assert err.count("\n") == 1


def test_validate_rejects_a_misspelt_key_in_one_line(tmp_path: Path, capsys):
    doc = json.loads(REFERENCE_PATH.read_text())
    gear = doc["gear_couplings"][0]
    gear["offset_dge"] = gear.pop("offset_deg")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", bad)
    assert code == 1
    assert out == ""
    assert err == "error: SchemaError: gear_couplings[0].offset_dge: unknown key\n"


def test_optimize_stage_without_parameters_is_a_fitting_error(tmp_path: Path, capsys,
                                                              monkeypatch):
    # The demo four-bar tags no radius parameters, so `--stage all` cannot
    # run its radius stage, and it fails before the humerus stage descends.
    def never(*args, **kwargs):
        raise AssertionError("no stage may run")

    monkeypatch.setattr("armwing.fitting.minimize", never)
    target_csv = tmp_path / "target.csv"
    run(capsys, "target", "--samples", "60", "--out", target_csv)
    code, _, err = run(
        capsys, "optimize", "--mech", DEMO_PATH, "--targets", target_csv,
        "--out", tmp_path / "fit.json",
    )
    assert code == 1
    assert err == "error: FittingError: no parameters tagged for stage 'radius'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target.csv"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["target", "--samples", "0"], "--samples"),
        (["sweep", "--mech", REFERENCE_PATH, "--samples", "3"], "--samples"),
        (["sensitivity", "--mech", REFERENCE_PATH, "--rank", "--samples", "0"], "--samples"),
        (["sensitivity", "--mech", REFERENCE_PATH, "--rank", "--delta", "0"], "--delta"),
        (["sensitivity", "--mech", REFERENCE_PATH, "--param", "crank_len",
          "--range", "0.95:1.05:0.05", "--samples", "4"], "--samples"),
        (["optimize", "--multistarts", "0"], "--multistarts"),
        (["optimize", "--multistarts", "-3"], "--multistarts"),
        (["optimize", "--maxiter", "0"], "--maxiter"),
        (["optimize", "--maxiter", "-1"], "--maxiter"),
        (["optimize", "--seed", "-1"], "--seed"),
        (["solve", REFERENCE_PATH, "--phi", "nan"], "--phi"),
        (["solve", REFERENCE_PATH, "--phi", "inf"], "--phi"),
        (["solve", REFERENCE_PATH, "--phi", "ten"], "--phi"),
        (["material", "--check", "--material", "FLX9870", "--strain", "43",
          "--safety-factor", "0.5"], "--safety-factor"),
        (["material", "--check", "--material", "FLX9870", "--strain", "43",
          "--safety-factor", "nan"], "--safety-factor"),
        (["material", "--check", "--material", "FLX9870", "--strain", "-5"], "--strain"),
        (["material", "--check", "--material", "FLX9870", "--strain", "nan"], "--strain"),
        (["sensitivity", "--mech", REFERENCE_PATH, "--param", "crank_len",
          "--range", "0.95:inf:0.05"], "--range"),
        # 200001 scales: over the maximum, yet cheap to list if the check were gone
        (["sensitivity", "--mech", REFERENCE_PATH, "--param", "crank_len",
          "--range", "0.9:1.1:1e-6", "--samples", "4"], "--range"),
        (["sensitivity", "--mech", REFERENCE_PATH, "--param", "crank_len",
          "--range", "0.9:0.95:0.05"], "--range"),
        (["plot", "--csv", REFERENCE_PATH, "--out", "p.svg", "--scale", "nan"], "--scale"),
        (["plot", "--csv", REFERENCE_PATH, "--out", "p.svg", "--scale", "inf"], "--scale"),
    ],
    ids=["target-samples", "sweep-samples", "rank-samples", "rank-delta", "family-samples",
         "multistarts-0", "multistarts-neg", "maxiter-0", "maxiter-neg", "seed-negative",
         "phi-nan", "phi-inf",
         "phi-text", "safety-factor-low", "safety-factor-nan", "strain-neg", "strain-nan",
         "range-inf", "range-huge", "range-no-nominal", "scale-nan", "scale-inf"],
)
def test_invalid_counts_are_usage_errors(capsys, tmp_path: Path, argv, flag):
    if argv[0] == "optimize":
        argv = argv + ["--mech", REFERENCE_PATH, "--targets", tmp_path / "t.csv",
                       "--out", tmp_path / "r.json"]
    with pytest.raises(SystemExit) as err:
        cli.main([str(a) for a in argv])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _target_csv(path: Path, capsys, samples: int) -> Path:
    run(capsys, "target", "--samples", str(samples), "--out", path)
    return path


@pytest.mark.parametrize("command", ["validate", "sweep", "optimize", "plot"])
def test_non_utf8_input_files_are_schema_errors(command, tmp_path: Path, capsys):
    """A mechanism file or trajectory CSV that is not UTF-8 ends in a
    SchemaError that names the file, whichever command reads it."""
    bad = tmp_path / "latin1"
    bad.write_bytes(",".join(["phi_deg", "theta_s_deg"]).encode() + b"\n\xb0\xff\n")
    target = _target_csv(tmp_path / "target.csv", capsys, 60)
    argv = {
        "validate": ["validate", bad],
        "sweep": ["sweep", "--mech", bad, "--samples", "24", "--out", tmp_path / "o.csv"],
        "optimize": ["optimize", "--mech", DEMO_PATH, "--targets", bad,
                     "--out", tmp_path / "fit.json"],
        "plot": ["plot", "--csv", target, "--csv", bad, "--out", tmp_path / "o.svg"],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: SchemaError: {bad}: not UTF-8 text: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("rows", [0, 1])
def test_a_plot_needs_two_rows_per_csv(rows, tmp_path: Path, capsys):
    full = tmp_path / "full.csv"
    run(capsys, "sweep", "--mech", DEMO_PATH, "--samples", "24", "--out", full)
    short = tmp_path / "short.csv"
    short.write_text("".join(full.read_text().splitlines(keepends=True)[: rows + 1]))
    code, _, err = run(capsys, "plot", "--csv", full, "--csv", short,
                       "--out", tmp_path / "o.svg")
    assert code == 1
    assert err == {
        0: "error: SchemaError: rows: a trajectory needs at least one row\n",
        1: f"error: SchemaError: {short}: a plotted trajectory needs at least 2 rows\n",
    }[rows]
    assert not (tmp_path / "o.svg").exists()


@pytest.mark.parametrize("series, column", [("tip", "tip_x_mm"), ("theta_e", "theta_e_deg")])
def test_a_plot_axis_that_overflows_names_its_column(series, column, tmp_path: Path, capsys):
    """A cell near the largest double leaves no finite axis span: the plot
    exits 1 with a one-line SchemaError naming the column, and writes no
    SVG (which would hold NaN points and tick labels)."""
    full = tmp_path / "full.csv"
    run(capsys, "sweep", "--mech", DEMO_PATH, "--samples", "24", "--out", full)
    lines = full.read_text().splitlines(keepends=True)
    at = lines[0].strip().split(",").index(column)
    cells = lines[3].split(",")
    cells[at] = "-1.7976931348623157e308"
    lines[3] = ",".join(cells) + ("" if cells[-1].endswith("\n") else "\n")
    huge = tmp_path / "huge.csv"
    huge.write_text("".join(lines))
    code, _, err = run(capsys, "plot", "--csv", full, "--csv", huge, "--series", series,
                       "--out", tmp_path / "o.svg")
    assert code == 1
    assert err.startswith(f"error: SchemaError: {column}: ") and err.count("\n") == 1
    assert not (tmp_path / "o.svg").exists()
    code, _, _ = run(capsys, "plot", "--csv", full, "--series", series, "--out", tmp_path / "o.svg")
    assert code == 0 and "nan" not in (tmp_path / "o.svg").read_text().lower()


@pytest.mark.parametrize("samples, code", [(0, 1), (1, 1), (7, 1), (8, 0)])
def test_a_target_csv_needs_the_gait_sweep_floor(samples, code, tmp_path: Path, capsys):
    """A wingbeat target is fitted from GAIT_MIN_SAMPLES = 8 phases up; a
    header-only or shorter file ends in an ArmwingError, not a ValueError."""
    target = _target_csv(tmp_path / "target.csv", capsys, max(samples, 1))
    if samples == 0:
        target.write_text(target.read_text().splitlines(keepends=True)[0])
    got, _, err = run(
        capsys, "optimize", "--mech", DEMO_PATH, "--targets", target, "--stage", "humerus",
        "--multistarts", "1", "--maxiter", "2", "--out", tmp_path / "fit.json",
    )
    assert got == code
    assert err == {
        0: "error: SchemaError: rows: a trajectory needs at least one row\n",
        1: "error: GridMismatch: a wingbeat target needs at least 8 phases, got 1\n",
        7: "error: GridMismatch: a wingbeat target needs at least 8 phases, got 7\n",
        8: "",
    }[samples]
    assert (tmp_path / "fit.json").exists() == (code == 0)


def _error_names(cls=ArmwingError) -> set[str]:
    """The names of ArmwingError and of every subclass of it."""
    return {cls.__name__}.union(*(_error_names(sub) for sub in cls.__subclasses__()))


# A valid 12-phase target trajectory, as lines of bytes without line ends.
_TARGET_LINES = target_csv_text(sample_targets(12)).encode().splitlines()
# Cell texts beside any float's repr: non-finite, huge and tiny values, and
# text float() reads or rejects.
_CELLS = st.sampled_from([
    "nan", "inf", "-inf", "1e308", "-1.7976931348623157e308", "1e999", "5e-324", "1e300",
    "", "abc", "1_0", " 7", "0x10", "-0", "1,2",
]) | st.floats().map(repr) | st.floats(-1e3, 1e3).map(repr)


@st.composite
def _mutated_csvs(draw) -> bytes:
    """A valid trajectory CSV with up to three row or cell edits (a cell
    replaced, a row repeated or dropped), then perhaps one byte-level damage:
    a BOM, bytes that are not UTF-8 or a truncation."""
    lines = list(_TARGET_LINES)
    for edit in draw(st.lists(st.sampled_from(["cell", "repeat", "drop"]), max_size=3)):
        row = draw(st.integers(0, len(lines) - 1), label="row")
        if edit == "cell":
            cells = lines[row].split(b",")
            column = draw(st.integers(0, len(cells) - 1), label="column")
            cells[column] = draw(_CELLS, label="cell").encode()
            lines[row] = b",".join(cells)
        elif edit == "repeat":
            lines.insert(row, lines[row])
        else:
            del lines[row]
    data = b"".join(line + b"\n" for line in lines)
    damage = draw(st.sampled_from([None, "bom", "bytes", "truncate"]), label="damage")
    if damage == "bom":
        data = b"\xef\xbb\xbf" + data
    elif damage == "bytes":
        at = draw(st.integers(0, len(data)), label="at")
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00"])) + data[at:]
    elif damage == "truncate":
        data = data[: draw(st.integers(0, len(data)), label="length")]
    return data


def _shoulder_cell(value: str) -> bytes:
    """The valid target with the shoulder angle of its first row set to ``value``."""
    lines = list(_TARGET_LINES)
    cells = lines[1].split(b",")
    cells[1] = value.encode()
    lines[1] = b",".join(cells)
    return b"".join(line + b"\n" for line in lines)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=_mutated_csvs())
@example(data=_shoulder_cell("-12.5"))  # valid: every command succeeds
@example(data=b"\xef\xbb\xbf" + _shoulder_cell("-12.5"))
@example(data=_shoulder_cell("1e308"))  # a huge target angle overflowed the fit
@example(data=_shoulder_cell("1.7976931348623157e308"))
@example(data=_shoulder_cell("-12.5")[:-5])
def test_a_mutated_trajectory_csv_reads_or_fails_by_name(data):
    """A trajectory CSV with broken bytes or cells is read, plotted and fitted
    to, or the reader raises an ArmwingError and the CLI exits 1 naming one."""
    names = _error_names()
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "t.csv"
        csv.write_bytes(data)
        try:
            read_trajectory_csv(csv)
        except ArmwingError:
            pass
        for argv in (
            ["plot", "--csv", csv, "--out", Path(tmp) / "o.svg"],
            ["optimize", "--mech", REFERENCE_PATH, "--targets", csv, "--stage", "humerus",
             "--multistarts", "1", "--maxiter", "2", "--out", Path(tmp) / "fit.json"],
        ):
            err = io.StringIO()
            # Cells near the largest double overflow the plot's span: numpy warns.
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    np.errstate(all="ignore"):
                code = cli.main([str(a) for a in argv])
            assert code in (0, 1), argv[0]
            if code == 1:
                named = re.match(r"error: (\w+): ", err.getvalue())
                assert named and named.group(1) in names, (argv[0], err.getvalue())
            elif argv[0] == "plot":
                assert "nan" not in (Path(tmp) / "o.svg").read_text().lower()


_SCALES = st.one_of(st.floats(-1.0, 2.0), st.sampled_from([0.0, 0.5, 0.9, 0.95, 1.0]))
_STEPS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.05, 0.1, 0.5]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(low=_SCALES, step=_STEPS, count=st.integers(-1, 3))
@example(low=0.9, step=0.05, count=1)  # no scale snaps to 1.0
@example(low=0.9, step=0.05, count=3)
def test_a_scale_range_sweeps_or_is_refused(low, step, count):
    """A family sweep over --range min:max:step, of at most a few scales,
    returns 0 or 1 or is a usage error (exit 2); it raises nothing else."""
    text = f"{low!r}:{low + count * step!r}:{step!r}"
    argv = ["sensitivity", "--mech", REFERENCE_PATH, "--param", "crank_len", "--range", text,
            "--samples", "8"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2), text
