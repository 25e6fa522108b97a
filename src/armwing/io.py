"""File formats: mechanism JSON documents, trajectory CSV, fit reports.

All emitters are deterministic: no timestamps, fixed key order, fixed float
formatting.  A document that parses cleanly re-emits byte-identically on
the second write (floats are printed with enough digits to survive the
parse exactly).  Angles are degrees in every file; the solver's radians
exist only in memory.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .errors import GridMismatch, MechanismSyntaxError, SchemaError, VersionError
from .fitting import DesignVector, FitReport
from .gait import TargetGait, phase_grid
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
from .solver import GaitTrajectory

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

_TOP_LEVEL_KEYS = {
    "format_version",
    "name",
    "description",
    "links",
    "ground_pivots",
    "joints",
    "driver",
    "gear_couplings",
    "outputs",
    "branches",
    "home_pose_deg",
    "parameters",
    "symmetry",
}


# ---------------------------------------------------------------------------
# mechanism documents


def _finite(value, where: str) -> float:
    """``value`` as a float; SchemaError when it has no finite float form."""
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(where, "must be finite")
    return out


def _expect(doc: dict, key: str, kind, where: str, default=_TOP_LEVEL_KEYS):
    """Fetch doc[key] checking its JSON type; ``default`` sentinel = required."""
    required = default is _TOP_LEVEL_KEYS
    if key not in doc:
        if required:
            raise SchemaError(f"{where}.{key}" if where else key, "missing")
        return default
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{where}.{key}" if where else key, "must be a number")
        return _finite(value, f"{where}.{key}" if where else key)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{where}.{key}" if where else key, "must be an integer")
        return value
    if not isinstance(value, kind):
        raise SchemaError(
            f"{where}.{key}" if where else key, f"must be {kind.__name__}"
        )
    return value


def _point_ref(text, where: str) -> tuple[str, str]:
    if not isinstance(text, str) or ":" not in text:
        raise SchemaError(where, f"expected 'link:point' reference, got {text!r}")
    link, _, point = text.partition(":")
    if not link or not point:
        raise SchemaError(where, f"expected 'link:point' reference, got {text!r}")
    return link, point


def parse_mechanism_text(text: str, source: str = "<string>") -> LinkageSpec:
    """Parse a mechanism JSON document from a string.

    Raises MechanismSyntaxError (with line and column) when the text is not
    JSON, VersionError for a missing/unsupported format_version, and
    SchemaError (naming the field path) for structural defects.  Validation
    of the kinematic structure itself is validate_mechanism's job.
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
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise SchemaError(sorted(unknown)[0], "unknown top-level key")

    links = []
    for i, raw in enumerate(_expect(doc, "links", list, "")):
        where = f"links[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(where, "must be an object")
        lid = _expect(raw, "id", str, where)
        points_raw = _expect(raw, "points", dict, where)
        points = {}
        for pname, xy in points_raw.items():
            if (
                not isinstance(xy, list)
                or len(xy) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in xy)
            ):
                raise SchemaError(f"{where}.points.{pname}", "must be [x, y]")
            points[pname] = np.array([_finite(v, f"{where}.points.{pname}") for v in xy])
        length = raw.get("length")
        if length is not None:
            length = _expect(raw, "length", float, where)
        links.append(Link(id=lid, points=points, length=length))

    pivots = []
    for i, raw in enumerate(_expect(doc, "ground_pivots", list, "")):
        where = f"ground_pivots[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(where, "must be an object")
        pivots.append(
            GroundPivot(
                id=_expect(raw, "id", str, where),
                x=_expect(raw, "x", float, where),
                y=_expect(raw, "y", float, where),
            )
        )

    joints = []
    for i, raw in enumerate(_expect(doc, "joints", list, "")):
        where = f"joints[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(where, "must be an object")
        joints.append(
            Joint(
                id=_expect(raw, "id", str, where),
                a=_point_ref(_expect(raw, "a", str, where), f"{where}.a"),
                b=_point_ref(_expect(raw, "b", str, where), f"{where}.b"),
            )
        )

    raw_driver = _expect(doc, "driver", dict, "")
    driver = Driver(
        joint=_expect(raw_driver, "joint", str, "driver"),
        sign=_expect(raw_driver, "sign", int, "driver", default=1),
        offset_deg=_expect(raw_driver, "offset_deg", float, "driver", default=0.0),
    )

    gears = []
    for i, raw in enumerate(_expect(doc, "gear_couplings", list, "", default=[])):
        where = f"gear_couplings[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(where, "must be an object")
        gears.append(
            GearCoupling(
                id=_expect(raw, "id", str, where),
                joint_in=_expect(raw, "joint_in", str, where),
                joint_out=_expect(raw, "joint_out", str, where),
                ratio=_expect(raw, "ratio", float, where),
                offset_deg=_expect(raw, "offset_deg", float, where, default=0.0),
            )
        )

    outputs = _expect(doc, "outputs", dict, "")
    angle_outputs = []
    for name, raw in _expect(outputs, "angles", dict, "outputs").items():
        where = f"outputs.angles.{name}"
        if not isinstance(raw, dict):
            raise SchemaError(where, "must be an object")
        angle_outputs.append(
            AngleOutput(
                name=name,
                link=_expect(raw, "link", str, where, default=None),
                joint=_expect(raw, "joint", str, where, default=None),
                sign=_expect(raw, "sign", int, where, default=1),
                offset_deg=_expect(raw, "offset_deg", float, where, default=0.0),
            )
        )
    point_outputs = {}
    for name, ref in _expect(outputs, "points", dict, "outputs").items():
        point_outputs[name] = _point_ref(ref, f"outputs.points.{name}")

    branches = {}
    for jid, flag in _expect(doc, "branches", dict, "", default={}).items():
        if not isinstance(flag, str):
            raise SchemaError(f"branches.{jid}", "must be a string")
        branches[jid] = flag

    home = {}
    for jid, angle in _expect(doc, "home_pose_deg", dict, "", default={}).items():
        if isinstance(angle, bool) or not isinstance(angle, (int, float)):
            raise SchemaError(f"home_pose_deg.{jid}", "must be a number")
        home[jid] = _finite(angle, f"home_pose_deg.{jid}")

    parameters = []
    for i, raw in enumerate(_expect(doc, "parameters", list, "", default=[])):
        where = f"parameters[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(where, "must be an object")
        parameters.append(
            ParameterBinding(
                name=_expect(raw, "name", str, where),
                target=_expect(raw, "target", str, where),
                min=_expect(raw, "min", float, where),
                max=_expect(raw, "max", float, where),
                stage=_expect(raw, "stage", str, where),
            )
        )

    symmetry = []
    for i, raw in enumerate(_expect(doc, "symmetry", list, "", default=[])):
        where = f"symmetry[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(where, "must be an object")
        symmetry.append(
            SymmetryConstraint(
                name=_expect(raw, "name", str, where),
                target=_expect(raw, "target", str, where),
                value=_expect(raw, "value", float, where),
            )
        )

    return LinkageSpec(
        name=_expect(doc, "name", str, "", default="mechanism"),
        links=links,
        ground_pivots=pivots,
        joints=joints,
        driver=driver,
        gear_couplings=gears,
        angle_outputs=angle_outputs,
        point_outputs=point_outputs,
        branches=branches,
        home_pose_deg=home,
        parameters=parameters,
        symmetry=symmetry,
        description=_expect(doc, "description", str, "", default=""),
    )


def parse_mechanism_file(path: str | Path) -> LinkageSpec:
    """Read and parse a mechanism JSON document."""
    path = Path(path)
    return parse_mechanism_text(path.read_text(encoding="utf-8"), source=str(path))


def mechanism_to_dict(spec: LinkageSpec) -> OrderedDict:
    """Canonical JSON-ready form of a LinkageSpec (fixed key order)."""
    doc: OrderedDict = OrderedDict()
    doc["format_version"] = FORMAT_VERSION
    doc["name"] = spec.name
    if spec.description:
        doc["description"] = spec.description
    doc["links"] = [
        OrderedDict(
            (("id", link.id),
             ("points", OrderedDict(
                 (name, [float(xy[0]), float(xy[1])])
                 for name, xy in link.points.items()
             )))
            + ((("length", float(link.length)),) if link.length is not None else ())
        )
        for link in spec.links
    ]
    doc["ground_pivots"] = [
        OrderedDict((("id", p.id), ("x", float(p.x)), ("y", float(p.y))))
        for p in spec.ground_pivots
    ]
    doc["joints"] = [
        OrderedDict(
            (("id", j.id), ("a", f"{j.a[0]}:{j.a[1]}"), ("b", f"{j.b[0]}:{j.b[1]}"))
        )
        for j in spec.joints
    ]
    doc["driver"] = OrderedDict(
        (
            ("joint", spec.driver.joint),
            ("sign", int(spec.driver.sign)),
            ("offset_deg", float(spec.driver.offset_deg)),
        )
    )
    if spec.gear_couplings:
        doc["gear_couplings"] = [
            OrderedDict(
                (
                    ("id", g.id),
                    ("joint_in", g.joint_in),
                    ("joint_out", g.joint_out),
                    ("ratio", float(g.ratio)),
                    ("offset_deg", float(g.offset_deg)),
                )
            )
            for g in spec.gear_couplings
        ]
    angles = OrderedDict()
    for out in spec.angle_outputs:
        entry: OrderedDict = OrderedDict()
        if out.link is not None:
            entry["link"] = out.link
        if out.joint is not None:
            entry["joint"] = out.joint
        entry["sign"] = int(out.sign)
        entry["offset_deg"] = float(out.offset_deg)
        angles[out.name] = entry
    doc["outputs"] = OrderedDict(
        (
            ("angles", angles),
            (
                "points",
                OrderedDict(
                    (name, f"{ref[0]}:{ref[1]}")
                    for name, ref in spec.point_outputs.items()
                ),
            ),
        )
    )
    if spec.branches:
        doc["branches"] = OrderedDict(sorted(spec.branches.items()))
    if spec.home_pose_deg:
        doc["home_pose_deg"] = OrderedDict(
            (k, float(v)) for k, v in sorted(spec.home_pose_deg.items())
        )
    if spec.parameters:
        doc["parameters"] = [
            OrderedDict(
                (
                    ("name", b.name),
                    ("target", b.target),
                    ("min", float(b.min)),
                    ("max", float(b.max)),
                    ("stage", b.stage),
                )
            )
            for b in spec.parameters
        ]
    if spec.symmetry:
        doc["symmetry"] = [
            OrderedDict(
                (("name", s.name), ("target", s.target), ("value", float(s.value)))
            )
            for s in spec.symmetry
        ]
    return doc


def write_mechanism_file(spec: LinkageSpec, path: str | Path) -> None:
    """Write a mechanism document; floats carry full round-trip precision."""
    text = json.dumps(mechanism_to_dict(spec), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# trajectory CSV


def _csv_text(phi, shoulder_deg, elbow_deg, elbow_path, tip_path) -> str:
    """Trajectory CSV text: the header plus one row per sample, each value
    %.12g; the one writer of the format."""
    if len(phi) == 0:
        raise ValueError("cannot write an empty trajectory")
    columns = (np.degrees(phi), shoulder_deg, elbow_deg, *np.transpose(elbow_path),
               *np.transpose(tip_path))
    lines = [",".join(TRAJECTORY_COLUMNS)]
    lines.extend(",".join("%.12g" % v for v in row) for row in zip(*columns))
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

    The header must match the shared trajectory format exactly; phases must
    be strictly increasing within [0, 360).
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SchemaError("header", "empty trajectory file")
    header = tuple(lines[0].split(","))
    if header != TRAJECTORY_COLUMNS:
        raise SchemaError(
            "header",
            f"expected columns {','.join(TRAJECTORY_COLUMNS)}, got {lines[0]!r}",
        )
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(TRAJECTORY_COLUMNS):
            raise SchemaError(f"row {i}", f"expected 7 columns, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise SchemaError(f"row {i}", str(exc)) from None
    data = np.asarray(rows, dtype=float).reshape(-1, len(TRAJECTORY_COLUMNS))
    phi = data[:, 0]
    if np.any(phi < 0.0) or np.any(phi >= 360.0) or np.any(np.diff(phi) <= 0.0):
        raise SchemaError("phi_deg", "phases must be strictly increasing in [0, 360)")
    return {name: data[:, i].copy() for i, name in enumerate(TRAJECTORY_COLUMNS)}


def targets_from_trajectory(data: dict[str, np.ndarray]) -> TargetGait:
    """Build a TargetGait from trajectory columns.

    The file's phases must lie on the uniform grid 2*pi*k/N (within one
    part in 1e9 of a degree); the exact grid is then reconstructed so that
    downstream grid-identity checks hold bitwise.
    """
    phi_deg = data["phi_deg"]
    n = len(phi_deg)
    grid = phase_grid(n)
    if not np.allclose(phi_deg, np.degrees(grid), rtol=0.0, atol=1e-9):
        raise GridMismatch(
            f"trajectory phases are not the uniform {n}-sample wingbeat grid"
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
