"""The four benchmark workloads, each an op over generated designs.

Every workload has the same shape: ``make_input(i)`` builds op ``i``'s
input (untimed), ``op(x, span)`` is the timed call into the public armwing
API, ``check(x, out)`` verifies the output (untimed) and returns a failure
reason or None, and ``fingerprint(out)`` gives the bytes that must not
change when the run is traced; ``summary(out)`` is the little the run keeps
of an output once it is checked.  ``span`` opens a named span in a traced run
and does nothing otherwise.

Why these four (see README.md for the metric-to-layer table):

* staged_fit is the design loop the package exists for, at a reduced
  budget: trust-constr with finite differences, random restarts (some of
  which end infeasible), and thousands of parameter applies and analytic
  sweeps on one topology.  The least-squares polish is off: it runs to a
  1e-15 tolerance, so its work swings with the design (31 to 333 function
  evaluations per polish on seeds 3 to 6; staged fits of 27 to 62 s on
  seeds 1 to 6, on a 2-core Xeon), beyond any bound a run of one such fit
  could hold.  With the polish off, trust-constr spends its fixed
  iteration budget on every start and a fit takes about 4.2 CPU seconds.
* radius_polish measures the polish that staged_fit leaves out: the
  nominal start of the radius stage, where the polish is accepted, followed
  by its polish.  The polish's work is chaotic in the design: scaling every
  free parameter by 1 +- 1e-6 moved one polish between 79 and 107 function
  evaluations, and one stage between 7.9 and 10.9 CPU seconds.  A run holds
  only two or three such ops, so every op of every run fits the same design,
  drawn from a fixed seed, and only host noise spreads its times.  Distinct
  designs made the figures depend on how many ops the host's speed let into
  the window.  Each op gets a fresh graph of that design; a cache of whole
  fit results across calls would show here as a false gain.
* sensitivity_rank makes the same apply+sweep calls without scipy, so a
  faster mechanism core shows here and a fit-driver change does not.
* gait_sweep is a file round trip and one sweep with full Configuration
  objects, on a fresh design every op: no parameter applies, so a
  compile-once cache cannot amortise and its build cost shows.
"""

from __future__ import annotations

import json
import math
import types

import numpy as np

import armwing.solver
from armwing import (
    DesignVector,
    FitOptions,
    PlotSpec,
    Series,
    evaluate_constraints,
    mechanism_to_dict,
    optimize_armwing,
    optimize_stage,
    parse_mechanism_text,
    read_trajectory_csv,
    render_svg,
    report_to_dict,
    sample_targets,
    sensitivity_rank,
    solve_configuration,
    trajectory_csv_text,
    validate_mechanism,
)

from checkout import OUT
from inputs import SAMPLES, DesignStream

FIT_MULTISTARTS = 2
FIT_MAXITER = 10
FIT_POLISH = False  # see the module docstring
POLISH_STAGE = "radius"
POLISH_DESIGN_SEED = 0  # the same design in every op; see the docstring
RANK_DELTA = 0.025
RANK_POOL = 8  # designs cycled through; each ranked once before timing
NEWTON_PHASES = 8
ANGLE_TOL_RAD = 1e-9
RESIDUAL_TOL_MM = 1e-9
CONSTRAINT_TOL = 1e-6


class StagedFit:
    name = "staged_fit"
    root = "fitting.optimize_armwing"
    unit = "fit"
    fit = True

    def __init__(self, base, seed: int):
        self.designs = DesignStream(base, seed)
        self.targets = sample_targets(SAMPLES)

    def make_input(self, index: int):
        # Fit i of every run restarts from the same random points, so the
        # workload seed moves only the design.  Restart points drawn from the
        # workload seed made the median fit of a ten-seed set spread 18%
        # (3.56 to 4.83 CPU s), against a bound of 20%.
        options = FitOptions(
            seed=index,
            multistarts=FIT_MULTISTARTS,
            maxiter=FIT_MAXITER,
            polish=FIT_POLISH,
        )
        return self.designs.design(index), options

    def op(self, x, span):
        design, options = x
        with span(self.root):
            return optimize_armwing(design, self.targets, options)

    def check(self, x, report) -> str | None:
        design, _ = x
        if not report.final_cost <= report.initial_cost:
            return f"final cost {report.final_cost!r} above initial {report.initial_cost!r}"
        fitted = report.design.apply(design)
        worst = float(np.max(evaluate_constraints(fitted, samples=SAMPLES)))
        if not worst <= CONSTRAINT_TOL:
            return f"constraint entry {worst!r} > {CONSTRAINT_TOL}"
        humerus = report.design.indices_for_stage("humerus")
        stage1 = report.stage_reports["humerus"].design.values[humerus]
        stage2 = report.stage_reports["radius"].design.values[humerus]
        final = report.design.values[humerus]
        if stage1.tobytes() != stage2.tobytes() or stage1.tobytes() != final.tobytes():
            return "humerus values moved during the radius stage"
        return None

    def fingerprint(self, report) -> bytes:
        return json.dumps(report_to_dict(report)).encode()

    def summary(self, report):
        """What the run keeps of a fit: (final/initial cost, every start)."""
        starts = [s for sub in report.stage_reports.values() for s in sub.starts]
        return report.final_cost / report.initial_cost, starts


class RadiusPolish:
    name = "radius_polish"
    root = "fitting.optimize_stage"
    unit = "polish"
    fit = True

    def __init__(self, base, seed: int):
        # The workload seed does not enter: see the module docstring.
        self.designs = DesignStream(base, POLISH_DESIGN_SEED)
        self.targets = sample_targets(SAMPLES)
        self.options = FitOptions(multistarts=1, maxiter=FIT_MAXITER, polish=True)

    def make_input(self, index: int):
        return self.designs.design(0), self.options

    def op(self, x, span):
        design, options = x
        with span(self.root):
            return optimize_stage(design, self.targets, POLISH_STAGE, options)

    def check(self, x, report) -> str | None:
        design, _ = x
        if not report.final_cost <= report.initial_cost:
            return f"final cost {report.final_cost!r} above initial {report.initial_cost!r}"
        fitted = report.design.apply(design)
        worst = float(np.max(evaluate_constraints(fitted, samples=SAMPLES)))
        if not worst <= CONSTRAINT_TOL:
            return f"constraint entry {worst!r} > {CONSTRAINT_TOL}"
        moved = np.flatnonzero(report.design.values != DesignVector.from_mechanism(design).values)
        allowed = set(report.design.indices_for_stage(POLISH_STAGE))
        if not set(moved.tolist()) <= allowed:
            return f"the {POLISH_STAGE} fit moved parameters of another stage"
        return None

    def fingerprint(self, report) -> bytes:
        return json.dumps(report_to_dict(report)).encode()

    def summary(self, report):
        return report.final_cost / report.initial_cost, list(report.starts)


class SensitivityRank:
    name = "sensitivity_rank"
    root = "sensitivity.sensitivity_rank"
    unit = "rank"
    fit = False

    def __init__(self, base, seed: int):
        self.designs = DesignStream(base, seed)
        # First computation of every pool design: the reference the timed
        # ops must reproduce, and a warm-up of every code path they take.
        self.pool = [self.designs.design(k) for k in range(RANK_POOL)]
        self.reference = [
            sensitivity_rank(design, delta=RANK_DELTA, samples=SAMPLES)
            for design in self.pool
        ]

    def make_input(self, index: int):
        return index % RANK_POOL

    def op(self, k, span):
        with span(self.root):
            return sensitivity_rank(self.pool[k], delta=RANK_DELTA, samples=SAMPLES)

    def check(self, k, ranking) -> str | None:
        bad = [name for name, score in ranking if not math.isfinite(score)]
        if bad:
            return f"non-finite scores for {', '.join(bad)}"
        if ranking != self.reference[k]:
            return f"ranking of pool design {k} differs from its first computation"
        return None

    def fingerprint(self, ranking) -> bytes:
        return repr([(name, float(score).hex()) for name, score in ranking]).encode()

    def summary(self, ranking):
        return None


class GaitSweep:
    name = "gait_sweep"
    root = "bench.gait_op"
    unit = "sweep"
    fit = False

    def __init__(self, base, seed: int):
        self.seed = seed
        self.designs = DesignStream(base, seed)

    def make_input(self, index: int):
        return self.designs.design(index)

    def op(self, design, span):
        """`armwing sweep` then `armwing plot` of the tip path, in memory."""
        with span(self.root):
            with span("io.serialize"):
                text = json.dumps(mechanism_to_dict(design.spec), indent=2) + "\n"
            with span("io.parse"):
                spec = parse_mechanism_text(text)
            with span("linkage.validate"):
                mech = validate_mechanism(spec)
            traj = armwing.solver.sweep_gait(mech, SAMPLES)
            with span("io.csv_write"):
                csv = trajectory_csv_text(traj)
            with span("svgplot.render"):
                svg = render_svg(
                    PlotSpec(
                        title="wingtip path",
                        x_label="x [mm]",
                        y_label="y [mm]",
                        series=[
                            Series(name="tip", x=traj.tip_path[:, 0], y=traj.tip_path[:, 1])
                        ],
                    )
                )
        return mech, traj, csv, svg

    def check(self, design, out) -> str | None:
        mech, traj, csv, _svg = out
        if not traj.residual_max <= RESIDUAL_TOL_MM:
            return f"loop-closure residual {traj.residual_max!r} mm"
        path = OUT / f"gait-{self.seed}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(csv, encoding="utf-8")
        data = read_trajectory_csv(path)
        reread = types.SimpleNamespace(
            phi=np.radians(data["phi_deg"]),
            theta_s_deg=data["theta_s_deg"],
            theta_e_deg=data["theta_e_deg"],
            elbow_path=np.column_stack([data["elbow_x_mm"], data["elbow_y_mm"]]),
            tip_path=np.column_stack([data["tip_x_mm"], data["tip_y_mm"]]),
        )
        if trajectory_csv_text(reread) != csv:
            return "trajectory CSV does not round-trip"
        step = SAMPLES // NEWTON_PHASES
        for k in range(0, SAMPLES, step):
            newton = solve_configuration(mech, traj.phi[k], method="newton")
            swept = traj.configurations[k].joint_angles
            for joint, angle in newton.joint_angles.items():
                gap = abs(math.remainder(angle - swept[joint], 2.0 * math.pi))
                if not gap <= ANGLE_TOL_RAD:
                    return f"joint {joint} at sample {k}: sweep and Newton differ by {gap!r} rad"
        return None

    def fingerprint(self, out) -> bytes:
        _mech, _traj, csv, svg = out
        return (csv + svg).encode()

    def summary(self, out):
        return None


WORKLOADS = {w.name: w for w in (StagedFit, RadiusPolish, SensitivityRank, GaitSweep)}
