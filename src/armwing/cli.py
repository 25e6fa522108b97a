"""Command-line front end.

One binary, eight subcommands: solve, sweep, target, optimize, sensitivity,
material, plot, validate.  Angles cross the CLI boundary in degrees; files
are UTF-8.  Exit codes: 0 success, 1 domain error (one line on stderr in
the form ``error: <Kind>: <detail>``), 2 usage.  The material database
path defaults to the bundled file and can be overridden with the
ARMWING_MATERIALS environment variable or --db.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .errors import ArmwingError, SchemaError
from .fitting import STAGE_CHOICES, FitOptions, optimize_armwing, optimize_stage
from .gait import phase_grid, sample_targets
from .io import (
    parse_mechanism_file,
    read_trajectory_csv,
    target_csv_text,
    targets_from_trajectory,
    trajectory_csv_text,
    write_mechanism_file,
    write_report_file,
    write_trajectory_csv,
)
from .linkage import STAGES, validate_mechanism
from .materials import (
    default_materials_path,
    get_material,
    load_materials,
    strain_budget_check,
)
from .sensitivity import RANK_DELTA_MAX, sensitivity_rank, sensitivity_sweep
from .solver import GAIT_MIN_SAMPLES, METHODS, solve_configuration, sweep_gait
from .svgplot import PlotSpec, Series, _data_range, write_svg

__all__ = ["main", "build_parser"]

MATERIALS_ENV = "ARMWING_MATERIALS"
RANGE_MAX_SCALES = 1000  # scales one --range may ask for, each a full sweep


def _materials_db(arg_path: str | None):
    path = arg_path or os.environ.get(MATERIALS_ENV) or default_materials_path()
    return load_materials(path)


def _load_mech(path: str):
    return validate_mechanism(parse_mechanism_file(path))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args) -> int:
    counts = _load_mech(args.mech).summary()
    stages = {stage: counts[f"{stage}_parameters"] for stage in sorted(STAGES)
              if counts[f"{stage}_parameters"]}
    if args.json:
        doc = OrderedDict(
            (
                ("name", counts["name"]),
                ("links", counts["links"]),
                ("joints", counts["joints"]),
                ("ground_pivots", counts["ground_pivots"]),
                ("loops", counts["loops"]),
                ("free_joints", counts["free_unknowns"]),
                ("gear_couplings", counts["gear_couplings"]),
                ("parameters", stages),
                ("symmetry", counts["symmetry"]),
                ("valid", True),
            )
        )
        print(json.dumps(doc, indent=2))
    else:
        print(f"mechanism: {counts['name']}")
        print(f"  links {counts['links']}, joints {counts['joints']}, "
              f"ground pivots {counts['ground_pivots']}")
        print(f"  loops {counts['loops']}, free joints {counts['free_unknowns']}, "
              f"gear couplings {counts['gear_couplings']}")
        for stage, count in stages.items():
            print(f"  parameters[{stage}]: {count}")
        if counts["symmetry"]:
            print(f"  symmetry constraints: {counts['symmetry']}")
        print("  valid")
    return 0


def _cmd_solve(args) -> int:
    mech = _load_mech(args.mech)
    config = solve_configuration(mech, np.radians(args.phi), method=args.method)
    if args.json:
        doc = OrderedDict(
            (
                ("phi_deg", float(np.degrees(config.phase))),
                ("residual_norm_mm", float(config.residual_norm)),
                (
                    "joint_angles_deg",
                    OrderedDict(
                        (k, float(np.degrees(v)))
                        for k, v in sorted(config.joint_angles.items())
                    ),
                ),
                (
                    "points_mm",
                    OrderedDict(
                        (k, [float(v[0]), float(v[1])])
                        for k, v in sorted(config.points.items())
                    ),
                ),
            )
        )
        print(json.dumps(doc, indent=2))
    else:
        print(f"phi = {np.degrees(config.phase):.6g} deg")
        print(f"residual = {config.residual_norm:.3e} mm")
        for k in sorted(config.joint_angles):
            print(f"  angle {k}: {np.degrees(config.joint_angles[k]):.6f} deg")
        for k in sorted(config.points):
            p = config.points[k]
            print(f"  point {k}: ({p[0]:.6f}, {p[1]:.6f}) mm")
    return 0


def _cmd_sweep(args) -> int:
    mech = _load_mech(args.mech)
    traj = sweep_gait(mech, samples=args.samples, method=args.method)
    if args.out:
        write_trajectory_csv(traj, args.out)
        print(
            f"wrote {len(traj)} samples to {args.out} "
            f"(wrap deviation {traj.wrap_deviation_rad:.3e} rad, "
            f"max step {np.degrees(traj.max_step_rad):.3f} deg)"
        )
    else:
        sys.stdout.write(trajectory_csv_text(traj))
    return 0


def _cmd_target(args) -> int:
    text = target_csv_text(sample_targets(args.samples))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.samples} target samples to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_optimize(args) -> int:
    mech = _load_mech(args.mech)
    targets = targets_from_trajectory(read_trajectory_csv(args.targets))
    options = FitOptions(
        seed=args.seed,
        multistarts=args.multistarts,
        maxiter=args.maxiter,
    )
    if args.stage == "all":
        report = optimize_armwing(mech, targets, options)
    else:
        report = optimize_stage(mech, targets, stage=args.stage, options=options)
    write_report_file(report, args.out)
    out_mech = args.out_mech
    if out_mech is None:
        out_mech = str(Path(args.out).with_suffix("")) + "_mechanism.json"
    fitted = report.design.apply(mech)
    write_mechanism_file(fitted.spec, out_mech)
    print(
        f"stage {report.stage}: cost {report.initial_cost:.6g} -> "
        f"{report.final_cost:.6g} deg^2 "
        f"(winner start {report.winner_start}, "
        f"violation {report.constraint_violation_max:.3e})"
    )
    print(f"report: {args.out}")
    print(f"fitted mechanism: {out_mech}")
    return 0


def _number(low: float = -math.inf, kind=float):
    """An argparse type: a finite number, an integer with ``kind=int``, of
    at least ``low``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low:g}, got {text}")
        return value

    return parse


def _rank_delta(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value <= RANK_DELTA_MAX:
        raise argparse.ArgumentTypeError(f"must be in (0, {RANK_DELTA_MAX}], got {text}")
    return value


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("range must be min:max:step")
    lo, hi, step = (_number()(p) for p in parts)
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("range must satisfy min <= max, step > 0")
    steps = (hi - lo) / step  # inf when the step is subnormal
    if steps >= RANGE_MAX_SCALES - 0.5:  # more than the maximum once rounded
        raise argparse.ArgumentTypeError(f"range gives more than {RANGE_MAX_SCALES} scales")
    scales = [lo + k * step for k in range(round(steps) + 1)]
    scales = [1.0 if abs(s - 1.0) <= 1e-9 else s for s in scales]
    if 1.0 not in scales:
        raise argparse.ArgumentTypeError("range must include the nominal scale 1.0")
    return scales


def _cmd_sensitivity(args) -> int:
    mech = _load_mech(args.mech)
    if args.rank:
        ranking = sensitivity_rank(mech, delta=args.delta, samples=args.samples)
        if args.json:
            doc = [
                OrderedDict((("parameter", name), ("score_mm_per_pct", float(score))))
                for name, score in ranking
            ]
            print(json.dumps(doc, indent=2))
        else:
            width = max((len(name) for name, _ in ranking), default=0)
            print(f"{'parameter':<{width}}  score [mm per 1% change]")
            for name, score in ranking:
                print(f"{name:<{width}}  {score:.6g}")
        return 0
    if not args.param or not args.range:
        raise UsageError("sensitivity needs either --rank or --param with --range")
    if args.samples < GAIT_MIN_SAMPLES:
        raise UsageError(f"--samples must be >= {GAIT_MIN_SAMPLES} for a family sweep")
    result = sensitivity_sweep(mech, args.param, args.range, samples=args.samples)
    if args.plot:
        series = []
        for scale in result.scales:
            if scale in result.failures:
                continue
            traj = result.trajectories[scale]
            series.append(
                Series(
                    name=f"{args.param} x{scale:g}",
                    x=traj.tip_path[:, 0],
                    y=traj.tip_path[:, 1],
                    scale=scale,
                )
            )
        plot = PlotSpec(
            title=f"wingtip path family: {args.param}",
            x_label="tip x [mm]",
            y_label="tip y [mm]",
            series=series,
        )
        write_svg(plot, args.plot)
    if args.json:
        doc = OrderedDict(
            (
                ("parameter", result.parameter),
                ("nominal", float(result.nominal)),
                ("score_mm_per_pct", float(result.score_mm_per_pct)),
                ("scales", [float(s) for s in result.scales]),
                (
                    "max_tip_deviation_mm",
                    OrderedDict(
                        ("%g" % s, float(result.deviations[s]))
                        for s in result.scales
                        if s in result.deviations
                    ),
                ),
                (
                    "failures",
                    OrderedDict(
                        ("%g" % s, float(result.failures[s]))
                        for s in result.scales
                        if s in result.failures
                    ),
                ),
            )
        )
        print(json.dumps(doc, indent=2))
    else:
        print(f"parameter {result.parameter} (nominal {result.nominal:.6g})")
        print(f"score: {result.score_mm_per_pct:.6g} mm per 1% change")
        for s in result.scales:
            if s in result.failures:
                print(f"  x{s:<6g} fails to assemble (phi = {result.failures[s]:.6g} rad)")
            else:
                print(f"  x{s:<6g} max tip deviation {result.deviations[s]:.6g} mm")
        if args.plot:
            print(f"family plot: {args.plot}")
    return 0


def _cmd_material(args) -> int:
    db = _materials_db(args.db)
    if args.list:
        for name in sorted(db):
            mat = db[name]
            model = "mooney-rivlin" if mat.model is not None else "no model"
            print(
                f"{name}: shore {mat.shore_a[0]:g}-{mat.shore_a[1]:g}A, "
                f"elongation at break {mat.elongation_break_pct[0]:g}-"
                f"{mat.elongation_break_pct[1]:g}%, {model}"
            )
        return 0
    if not args.check:
        raise UsageError("material needs --check or --list")
    if args.strain is None or args.material is None:
        raise UsageError("material --check needs --strain and --material")
    mat = get_material(db, args.material)
    budget = strain_budget_check(args.strain, mat, safety_factor=args.safety_factor)
    verdict = "pass" if budget.passed else "FAIL"
    print(
        f"{mat.name}: strain demand {budget.demand_pct:.6g}% "
        f"(safety factor {args.safety_factor:g}) vs capacity "
        f"{budget.capacity_pct:.6g}% -> margin {budget.margin_pct:+.6g}% [{verdict}]"
    )
    return 0 if budget.passed else 1


def _cmd_plot(args) -> int:
    if not args.csv:
        raise UsageError("plot needs at least one --csv")
    labels = args.label or []
    scales = args.scale or []
    if args.series in ("tip", "elbow"):
        columns = (f"{args.series}_x_mm", f"{args.series}_y_mm")
        x_label, y_label = "x [mm]", "y [mm]"
    else:
        columns = ("phi_deg", f"{args.series}_deg")
        x_label, y_label = "phi [deg]", f"{args.series} [deg]"
    series = []
    for i, path in enumerate(args.csv):
        data = read_trajectory_csv(path)
        if len(data["phi_deg"]) < 2:
            raise SchemaError(str(path), "a plotted trajectory needs at least 2 rows")
        label = labels[i] if i < len(labels) else Path(path).stem
        scale = scales[i] if i < len(scales) else 1.0
        x, y = (data[column] for column in columns)
        series.append(Series(name=label, x=x, y=y, scale=scale))
    for column, values in zip(columns, ([s.x for s in series], [s.y for s in series])):
        try:
            _data_range(values)
        except ValueError as exc:  # the plot has no finite axis over this column
            raise SchemaError(column, str(exc)) from None
    plot = PlotSpec(
        title=args.title or f"{args.series} overlay",
        x_label=x_label,
        y_label=y_label,
        series=series,
    )
    write_svg(plot, args.out)
    print(f"wrote {args.out}")
    return 0


class UsageError(Exception):
    """Bad flag combinations that argparse's grammar cannot express."""


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="armwing",
        description="Planar linkage kinematics and design fitting for "
        "flapping armwing mechanisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a mechanism file")
    p.add_argument("mech", help="mechanism JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="solve one configuration at a phase")
    p.add_argument("mech", help="mechanism JSON file")
    p.add_argument("--phi", type=_number(), required=True, help="crank phase [deg]")
    p.add_argument(
        "--method",
        choices=METHODS,
        default="auto",
        help="solver route (default auto)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="sweep a full wingbeat to trajectory CSV")
    p.add_argument("--mech", required=True, help="mechanism JSON file")
    p.add_argument(
        "--samples", type=_number(GAIT_MIN_SAMPLES, int), default=360,
        help=f"phase samples, at least {GAIT_MIN_SAMPLES} (default 360)",
    )
    p.add_argument(
        "--method",
        choices=METHODS,
        default="auto",
        help="solver route (default auto)",
    )
    p.add_argument("--out", help="output CSV path (default: print to stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("target", help="emit the sampled target gait as CSV")
    p.add_argument("--samples", type=_number(1, int), default=360, help="phase samples (default 360)")
    p.add_argument("--out", help="output CSV path (default: print to stdout)")
    p.set_defaults(func=_cmd_target)

    p = sub.add_parser("optimize", help="fit design parameters to a target gait")
    p.add_argument("--mech", required=True, help="mechanism JSON file")
    p.add_argument("--targets", required=True, help="target trajectory CSV")
    p.add_argument(
        "--stage",
        choices=STAGE_CHOICES,
        default="all",
        help="fit one stage, or 'all' for the staged pipeline (default all)",
    )
    p.add_argument("--seed", type=_number(0, int), default=0, help="multistart RNG seed")
    defaults = FitOptions()
    p.add_argument("--multistarts", type=_number(1, int), default=defaults.multistarts,
                   help="starts per stage")
    p.add_argument("--maxiter", type=_number(1, int), default=defaults.maxiter,
                   help="iterations per start")
    p.add_argument("--out", required=True, help="fit report JSON path")
    p.add_argument(
        "--out-mech",
        help="fitted mechanism path (default: report path + _mechanism.json); "
        "the input file is never modified",
    )
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sensitivity", help="parameter sensitivity sweeps and ranking")
    p.add_argument("--mech", required=True, help="mechanism JSON file")
    p.add_argument("--param", help="parameter name for a family sweep")
    p.add_argument(
        "--range",
        type=_parse_range,
        help="scale range min:max:step (must include 1.0)",
    )
    p.add_argument("--rank", action="store_true", help="rank all parameters")
    p.add_argument(
        "--delta", type=_rank_delta, default=0.025,
        help=f"rank perturbation, in (0, {RANK_DELTA_MAX}] (default 0.025)",
    )
    p.add_argument(
        "--samples", type=_number(1, int), default=360,
        help=f"phase samples, at least {GAIT_MIN_SAMPLES} for a family sweep",
    )
    p.add_argument("--plot", help="write the family as an SVG to this path")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("material", help="hinge material strain budget checks")
    p.add_argument("--check", action="store_true", help="run a strain budget check")
    p.add_argument("--list", action="store_true", help="list known materials")
    p.add_argument("--strain", type=_number(0.0), help="demanded strain [percent]")
    p.add_argument("--material", help="material name, e.g. FLX9870")
    p.add_argument(
        "--safety-factor", type=_number(1.0), default=1.0, help="demand multiplier (>= 1)"
    )
    p.add_argument(
        "--db",
        help=f"material database JSON (default: bundled, or ${MATERIALS_ENV})",
    )
    p.set_defaults(func=_cmd_material)

    p = sub.add_parser("plot", help="overlay trajectory CSVs as an SVG plot")
    p.add_argument("--csv", action="append", help="trajectory CSV (repeatable)")
    p.add_argument(
        "--series",
        choices=("theta_s", "theta_e", "tip", "elbow"),
        default="theta_s",
        help="which column pair to draw (default theta_s)",
    )
    p.add_argument("--label", action="append", help="legend label (repeatable)")
    p.add_argument(
        "--scale", action="append", type=_number(),
        help="family scale for coloring (repeatable)",
    )
    p.add_argument("--title", help="plot title")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArmwingError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        parser.error(str(exc))
        return 2
    except OSError as exc:
        print(f"error: IoError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
