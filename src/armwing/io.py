"""File formats: mechanism JSON documents, trajectory CSV, fit reports.

All emitters are deterministic: no timestamps, fixed key order, fixed float
formatting.  A document that parses cleanly re-emits byte-identically on
the second write (floats are printed with enough digits to survive the
parse exactly).  Angles are degrees in every file; the solver's radians
exist only in memory.

``_RECORDS`` is the one definition of the mechanism document's record keys:
parsing, emitting and the unknown-key check all read it, so a record's keys
appear only there and in its dataclass.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .errors import GridMismatch, MechanismSyntaxError, SchemaError, VersionError
from .fitting import DesignVector, FitReport
from .gait import TARGET_ANGLE_MAX_DEG, TargetGait, phase_grid
from .linkage import (
    AngleOutput,
    Driver,
    GearCoupling,
    GroundPivot,
    Joint,
    Link,
    LinkageSpec,
    ParameterBinding,
    SymmetryConstraint,
)
from .solver import GAIT_MIN_SAMPLES, GaitTrajectory

__all__ = [
    "parse_mechanism_file",
    "parse_mechanism_text",
    "write_mechanism_file",
    "mechanism_to_dict",
    "trajectory_csv_text",
    "target_csv_text",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "targets_from_trajectory",
    "report_to_dict",
    "write_report_file",
]

FORMAT_VERSION = 1

TRAJECTORY_COLUMNS = (
    "phi_deg",
    "theta_s_deg",
    "theta_e_deg",
    "elbow_x_mm",
    "elbow_y_mm",
    "tip_x_mm",
    "tip_y_mm",
)


# ---------------------------------------------------------------------------
# mechanism documents

_REQUIRED = object()  # a field default: the key must be present

# The one definition of the mechanism document's records: each section's
# dataclass and its fields as (key, kind, default), in document order.  A
# kind is str, int, float, "ref" (a "link:point" string) or "points" (a map
# of [x, y] pairs); a None default leaves the key out while its value is None.
_RECORDS = {
    "links": (Link, (
        ("id", str, _REQUIRED), ("points", "points", _REQUIRED), ("length", float, None),
    )),
    "ground_pivots": (GroundPivot, (
        ("id", str, _REQUIRED), ("x", float, _REQUIRED), ("y", float, _REQUIRED),
    )),
    "joints": (Joint, (("id", str, _REQUIRED), ("a", "ref", _REQUIRED), ("b", "ref", _REQUIRED))),
    "driver": (Driver, (("joint", str, _REQUIRED), ("sign", int, 1), ("offset_deg", float, 0.0))),
    "gear_couplings": (GearCoupling, (
        ("id", str, _REQUIRED), ("joint_in", str, _REQUIRED), ("joint_out", str, _REQUIRED),
        ("ratio", float, _REQUIRED), ("offset_deg", float, 0.0),
    )),
    "outputs.angles": (AngleOutput, (  # the name is the record's key in the map
        ("link", str, None), ("joint", str, None), ("sign", int, 1), ("offset_deg", float, 0.0),
    )),
    "parameters": (ParameterBinding, (
        ("name", str, _REQUIRED), ("target", str, _REQUIRED), ("min", float, _REQUIRED),
        ("max", float, _REQUIRED), ("stage", str, _REQUIRED),
    )),
    "symmetry": (SymmetryConstraint, (
        ("name", str, _REQUIRED), ("target", str, _REQUIRED), ("value", float, _REQUIRED),
    )),
}
# the keys each JSON object of the document may hold; "" is the top level
_KEYS = {section: frozenset(f[0] for f in fields) for section, (_, fields) in _RECORDS.items()}
_KEYS[""] = frozenset((
    "format_version", "name", "description", "links", "ground_pivots", "joints", "driver",
    "gear_couplings", "outputs", "branches", "home_pose_deg", "parameters", "symmetry",
))
_KEYS["outputs"] = frozenset(("angles", "points"))


# A checker takes a JSON value with the place it sits in the document, the
# enclosing path and its own key, and returns the parsed value.  It builds
# the field path only to raise the SchemaError that names it.


def _path(where: str, key) -> str:
    return f"{where}.{key}" if where else key


def _number(value, where: str, key) -> float:
    """``value`` as a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(_path(where, key), "must be a number")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(_path(where, key), "must be finite")
    return out


def _integer(value, where: str, key) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(_path(where, key), "must be an integer")
    return value


def _typed(kind):
    def check(value, where: str, key):
        if not isinstance(value, kind):
            raise SchemaError(_path(where, key), f"must be {kind.__name__}")
        return value

    return check


def _point_ref(text, where: str, key) -> tuple[str, str]:
    if isinstance(text, str):
        link, _, point = text.partition(":")
        if link and point:
            return link, point
    raise SchemaError(_path(where, key), f"expected 'link:point' reference, got {text!r}")


def _points(value, where: str, key) -> dict[str, np.ndarray]:
    """A map of point name to [x, y]."""
    where = _path(where, key)
    if not isinstance(value, dict):
        raise SchemaError(where, "must be dict")
    points = {}
    for name, xy in value.items():
        if not isinstance(xy, list) or len(xy) != 2:
            raise SchemaError(f"{where}.{name}", "must be [x, y]")
        points[name] = np.array([_number(xy[0], where, name), _number(xy[1], where, name)])
    return points


# kind -> (checker, renderer of a parsed value as JSON)
_KINDS = {
    str: (_typed(str), str),
    int: (_integer, int),
    float: (_number, float),
    "ref": (_point_ref, lambda ref: f"{ref[0]}:{ref[1]}"),
    "points": (_points, lambda points: {
        name: [float(xy[0]), float(xy[1])] for name, xy in points.items()
    }),
    list: (_typed(list), None),
    dict: (_typed(dict), None),
}


def _known(doc: dict, keys: frozenset, where: str) -> dict:
    """``doc`` when every key is one of ``keys``, else SchemaError naming the
    first unknown one."""
    if not doc.keys() <= keys:
        raise SchemaError(_path(where, min(doc.keys() - keys)), "unknown key")
    return doc


def _expect(doc: dict, key: str, kind, where: str, default=_REQUIRED):
    """doc[key] checked as ``kind``; ``default`` when it is absent."""
    if key in doc:
        return _KINDS[kind][0](doc[key], where, key)
    if default is _REQUIRED:
        raise SchemaError(_path(where, key), "missing")
    return default


def _map(raw: dict, kind, where: str) -> dict:
    """The JSON object ``raw`` at ``where`` with each value checked as ``kind``."""
    check = _KINDS[kind][0]
    return {name: check(value, where, name) for name, value in raw.items()}


def _record(raw, section: str, where: str, **values):
    """One record of ``section`` parsed from the JSON object ``raw``;
    ``values`` holds fields the document keeps outside the object."""
    cls, fields = _RECORDS[section]
    if not isinstance(raw, dict):
        raise SchemaError(where, "must be an object")
    _known(raw, _KEYS[section], where)
    for key, kind, default in fields:  # _expect, with the common case inlined for speed
        if key in raw:
            values[key] = _KINDS[kind][0](raw[key], where, key)
        else:
            values[key] = _expect(raw, key, kind, where, default)
    return cls(**values)


def _records(doc: dict, section: str, default=_REQUIRED) -> list:
    """The JSON list doc[section], each element parsed as one record."""
    return [
        _record(raw, section, f"{section}[{i}]")
        for i, raw in enumerate(_expect(doc, section, list, "", default))
    ]


def _emit(record, section: str) -> dict:
    """One record as a JSON object, keys in table order."""
    out = {}
    for key, kind, default in _RECORDS[section][1]:
        value = getattr(record, key)
        if value is not None or default is not None:
            out[key] = _KINDS[kind][1](value)
    return out


def parse_mechanism_text(text: str, source: str = "<string>") -> LinkageSpec:
    """Parse a mechanism JSON document from a string.

    Raises MechanismSyntaxError (with line and column) when the text is not
    JSON, VersionError for a missing/unsupported format_version, and
    SchemaError (naming the field path) for structural defects, unknown
    keys and null values among them.  Validation of the kinematic structure
    itself is validate_mechanism's job.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MechanismSyntaxError(exc.lineno, exc.colno, exc.msg) from None
    if not isinstance(doc, dict):
        raise SchemaError("", "top level must be a JSON object")
    version = doc.get("format_version")
    if isinstance(version, bool) or version != FORMAT_VERSION:  # True == 1
        raise VersionError(
            f"{source}: unsupported format_version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    _known(doc, _KEYS[""], "")
    outputs = _known(_expect(doc, "outputs", dict, ""), _KEYS["outputs"], "outputs")
    return LinkageSpec(
        name=_expect(doc, "name", str, "", default="mechanism"),
        links=_records(doc, "links"),
        ground_pivots=_records(doc, "ground_pivots"),
        joints=_records(doc, "joints"),
        driver=_record(_expect(doc, "driver", dict, ""), "driver", "driver"),
        gear_couplings=_records(doc, "gear_couplings", default=[]),
        angle_outputs=[
            _record(raw, "outputs.angles", f"outputs.angles.{name}", name=name)
            for name, raw in _expect(outputs, "angles", dict, "outputs").items()
        ],
        point_outputs=_map(_expect(outputs, "points", dict, "outputs"), "ref", "outputs.points"),
        branches=_map(_expect(doc, "branches", dict, "", default={}), str, "branches"),
        home_pose_deg=_map(
            _expect(doc, "home_pose_deg", dict, "", default={}), float, "home_pose_deg"
        ),
        parameters=_records(doc, "parameters", default=[]),
        symmetry=_records(doc, "symmetry", default=[]),
        description=_expect(doc, "description", str, "", default=""),
    )


def _read_utf8(path: Path) -> str:
    """The text of a UTF-8 file; other bytes are a SchemaError on the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(str(path), f"not UTF-8 text: {exc}") from None


def parse_mechanism_file(path: str | Path) -> LinkageSpec:
    """Read and parse a mechanism JSON document."""
    path = Path(path)
    return parse_mechanism_text(_read_utf8(path), source=str(path))


def mechanism_to_dict(spec: LinkageSpec) -> OrderedDict:
    """Canonical JSON-ready form of a LinkageSpec (fixed key order)."""
    doc: OrderedDict = OrderedDict()
    doc["format_version"] = FORMAT_VERSION
    doc["name"] = spec.name
    if spec.description:
        doc["description"] = spec.description
    doc["links"] = [_emit(link, "links") for link in spec.links]
    doc["ground_pivots"] = [_emit(pivot, "ground_pivots") for pivot in spec.ground_pivots]
    doc["joints"] = [_emit(joint, "joints") for joint in spec.joints]
    doc["driver"] = _emit(spec.driver, "driver")
    if spec.gear_couplings:
        doc["gear_couplings"] = [_emit(g, "gear_couplings") for g in spec.gear_couplings]
    doc["outputs"] = {
        "angles": {out.name: _emit(out, "outputs.angles") for out in spec.angle_outputs},
        "points": {name: _KINDS["ref"][1](ref) for name, ref in spec.point_outputs.items()},
    }
    if spec.branches:
        doc["branches"] = dict(sorted(spec.branches.items()))
    if spec.home_pose_deg:
        doc["home_pose_deg"] = {k: float(v) for k, v in sorted(spec.home_pose_deg.items())}
    if spec.parameters:
        doc["parameters"] = [_emit(b, "parameters") for b in spec.parameters]
    if spec.symmetry:
        doc["symmetry"] = [_emit(s, "symmetry") for s in spec.symmetry]
    return doc


def write_mechanism_file(spec: LinkageSpec, path: str | Path) -> None:
    """Write a mechanism document; floats carry full round-trip precision."""
    text = json.dumps(mechanism_to_dict(spec), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# trajectory CSV


def _csv_text(phi, shoulder_deg, elbow_deg, elbow_path, tip_path) -> str:
    """Trajectory CSV text: the header plus one row per sample, each value
    %.12g; the one writer of the format.  The columns stack into one float
    table, and each row formats as Python floats with one format string."""
    if len(phi) == 0:
        raise ValueError("cannot write an empty trajectory")
    table = np.column_stack((np.degrees(phi), shoulder_deg, elbow_deg, elbow_path, tip_path))
    row = ",".join(["%.12g"] * len(TRAJECTORY_COLUMNS))
    lines = [",".join(TRAJECTORY_COLUMNS)]
    lines.extend(row % tuple(values) for values in table.tolist())
    return "\n".join(lines) + "\n"


def trajectory_csv_text(traj: GaitTrajectory) -> str:
    """Render a sweep as CSV text: header plus one row per sample, %.12g.

    The format is bit-stable: rendering the same trajectory twice, or
    rendering the result of reading a written file, produces identical
    bytes.
    """
    return _csv_text(traj.phi, traj.theta_s_deg, traj.theta_e_deg, traj.elbow_path,
                     traj.tip_path)


def target_csv_text(targets: TargetGait) -> str:
    """Render a target gait as trajectory CSV with zero paths; reading it
    back with targets_from_trajectory gives the same targets."""
    paths = np.zeros((len(targets.phi), 2))
    return _csv_text(targets.phi, targets.shoulder_deg, targets.elbow_deg, paths, paths)


def write_trajectory_csv(traj: GaitTrajectory, path: str | Path) -> None:
    """Write a sweep as trajectory CSV (see trajectory_csv_text)."""
    Path(path).write_text(trajectory_csv_text(traj), encoding="utf-8")


def read_trajectory_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV into column arrays keyed by header name.

    The file must be UTF-8 and its header must match the shared trajectory
    format exactly; it needs at least one row, as the writer does.  Every
    cell must be a finite number and phases strictly increasing within
    [0, 360).
    """
    text = _read_utf8(Path(path))
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SchemaError("header", "empty trajectory file")
    header = tuple(lines[0].split(","))
    if header != TRAJECTORY_COLUMNS:
        raise SchemaError(
            "header",
            f"expected columns {','.join(TRAJECTORY_COLUMNS)}, got {lines[0]!r}",
        )
    if len(lines) == 1:
        raise SchemaError("rows", "a trajectory needs at least one row")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(TRAJECTORY_COLUMNS):
            raise SchemaError(f"row {i}", f"expected 7 columns, got {len(cells)}")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise SchemaError(f"row {i}", str(exc)) from None
        if not all(map(math.isfinite, row)):
            raise SchemaError(f"row {i}", "cells must be finite")
        rows.append(row)
    data = np.asarray(rows, dtype=float).reshape(-1, len(TRAJECTORY_COLUMNS))
    phi = data[:, 0]
    if np.any(phi < 0.0) or np.any(phi >= 360.0) or np.any(np.diff(phi) <= 0.0):
        raise SchemaError("phi_deg", "phases must be strictly increasing in [0, 360)")
    return {name: data[:, i].copy() for i, name in enumerate(TRAJECTORY_COLUMNS)}


def targets_from_trajectory(data: dict[str, np.ndarray]) -> TargetGait:
    """Build a TargetGait from trajectory columns.

    The file's phases must lie on the uniform grid 2*pi*k/N (within one
    part in 1e9 of a degree); the exact grid is then reconstructed so that
    downstream grid-identity checks hold bitwise.  A wingbeat target needs
    at least GAIT_MIN_SAMPLES phases, the floor of a gait sweep: a fit
    checks assembly on the target grid alone, so a coarser target could
    fit a design that does not turn through the wingbeat.  Target angles
    are at most TARGET_ANGLE_MAX_DEG in magnitude (SchemaError naming the
    column).
    """
    phi_deg = data["phi_deg"]
    n = len(phi_deg)
    if n < GAIT_MIN_SAMPLES:
        raise GridMismatch(
            f"a wingbeat target needs at least {GAIT_MIN_SAMPLES} phases, got {n}"
        )
    grid = phase_grid(n)
    if not np.allclose(phi_deg, np.degrees(grid), rtol=0.0, atol=1e-9):
        raise GridMismatch(
            f"trajectory phases are not the uniform {n}-sample wingbeat grid"
        )
    for column in ("theta_s_deg", "theta_e_deg"):
        if not np.all(np.abs(data[column]) <= TARGET_ANGLE_MAX_DEG):
            raise SchemaError(
                column, f"target angles must lie within +-{TARGET_ANGLE_MAX_DEG:g} degrees"
            )
    return TargetGait(
        phi=grid,
        shoulder_deg=np.asarray(data["theta_s_deg"], dtype=float),
        elbow_deg=np.asarray(data["theta_e_deg"], dtype=float),
    )


# ---------------------------------------------------------------------------
# fit reports


def _design_to_dict(design: DesignVector) -> OrderedDict:
    return OrderedDict(
        (
            ("names", list(design.names)),
            ("values", [float(v) for v in design.values]),
            ("lower", [float(v) for v in design.lower]),
            ("upper", [float(v) for v in design.upper]),
            ("stages", list(design.stages)),
        )
    )


def report_to_dict(report: FitReport) -> OrderedDict:
    """JSON-ready form of a FitReport (recursive over stage reports)."""
    return OrderedDict(
        (
            ("stage", report.stage),
            ("initial_cost_deg2", float(report.initial_cost)),
            ("final_cost_deg2", float(report.final_cost)),
            ("iterations", int(report.iterations)),
            ("winner_start", int(report.winner_start)),
            ("constraint_violation_max", float(report.constraint_violation_max)),
            ("seed", int(report.seed)),
            ("multistarts", int(report.multistarts)),
            ("samples", int(report.samples)),
            ("flags", list(report.flags)),
            ("design", _design_to_dict(report.design)),
            (
                "starts",
                [
                    OrderedDict(
                        (
                            ("index", s.index),
                            ("cost_deg2", float(s.cost)),
                            ("feasible", bool(s.feasible)),
                            ("iterations", int(s.iterations)),
                            ("polished", bool(s.polished)),
                            ("message", s.message),
                        )
                    )
                    for s in report.starts
                ],
            ),
            (
                "incumbent_history",
                [[int(i), float(c)] for i, c in report.incumbent_history],
            ),
            (
                "stage_reports",
                OrderedDict(
                    (name, report_to_dict(sub))
                    for name, sub in report.stage_reports.items()
                ),
            ),
        )
    )


def write_report_file(report: FitReport, path: str | Path) -> None:
    text = json.dumps(report_to_dict(report), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")
