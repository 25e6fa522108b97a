"""Design fitting: staged constrained least squares over mechanism geometry.

The fit minimizes the mean squared angle tracking error (degrees squared)
between a swept mechanism and a target gait, subject to bounds and a
constraint vector f_c (feasible iff every entry is <= 0), laid out once at
validation as the mechanism's ``constraints`` entries:

* per-loop assemblability margin over the whole phase grid,
* a Grashof full-rotation margin for each loop driven by a fully
  rotating input (the crank must be able to complete its turn),
* a minimum transmission angle floor of MIN_TRANSMISSION_DEG (10 degrees),
* the mechanism's declared symmetry equalities, published as paired
  inequalities (h <= 0 and -h <= 0).

A stage's variables are its live parameters: the stage-tagged parameters
a fit can read, decided once per stage.  Every trial point, screening
draw, descent step and reported design is a vector over them alone; the
other stage-tagged parameters are dead and keep their input values.
Optimization runs a bounded, constrained local descent (scipy's SLSQP;
Kraft, DFVLR-FB 88-28, 1988) from several starting points: the nominal
design, then the best of a few seeded uniform draws inside the box, each
screened by one batched sweep.  A descent sees the constraint entries the
live parameters move, and returns the least-cost feasible point it
evaluated.
Its gradient 2 J^T r / N, the constraint Jacobian and the polish's
residual Jacobian J are exact: one tangent pass of the solver
(solver.sweep_tangents) differentiates the sweep along the live
parameters and skips each step none of them moves, so a stage pays for
its side of the chain alone.  A max or min entry takes the derivative at
its active sample; penalty entries, and entries whose read-set no live
parameter reaches, get zero rows.  The primal sweep skips those steps
too: a stage solves the analytic steps whose read-set holds no live slot
once, and every trial sweep takes their results from that solution (in
the radius stage, the crank and the humerus dyad).  A trial point
computes its residuals and cost at once, and its constraint values, its
tangent pass and its Jacobians when first read; the polish reads none of
the constraint side.  Starts are independent, each on a
private mechanism copy, and merge deterministically by (cost, index).
Failed solves during the search contribute a fixed penalty per sample
instead of aborting, so the search can skirt the assemblability boundary
while the margin entries push it back.

Stages: 'humerus' fits the shoulder-drive parameters against the shoulder
target, 'radius' fits the elbow-drive parameters against the elbow target,
'all' fits both parameter groups against both angle series at once.  The
staged driver optimize_armwing runs optimize_stage for humerus then radius,
always in that order; stage-1 values are excluded from the stage-2 design
vector, so they stay bit-identical.  A fit reads every design it evaluates
from a _Point: SLSQP, the polish and the start records read trial points,
and the staged report a closing point of one plain sweep.  Every report's
constraint_violation_max is a point's violation.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import least_squares, minimize

from .errors import EmptyResidual, FittingError, GridMismatch, NoFeasibleStart, SchemaError
from .gait import TARGET_ANGLE_MAX_DEG, TargetGait, phase_grid
from .linkage import MechanismGraph
from .sensitivity import _sweep_designs
from .solver import GAIT_MIN_SAMPLES, _one_design, _solve_steps, sweep_series, sweep_tangents

__all__ = [
    "DesignVector",
    "FitOptions",
    "StartRecord",
    "FitReport",
    "cost",
    "evaluate_constraints",
    "constraint_names",
    "optimize_stage",
    "optimize_armwing",
]

STAGE_ORDER = ("humerus", "radius")  # the staged fit's stages, in run order
STAGE_CHOICES = STAGE_ORDER + ("all",)
PENALTY_DEG = 1e3
CONSTRAINT_PENALTY = 1e6
FEASIBILITY_TOL = 1e-6
MIN_TRANSMISSION_DEG = 10.0
SCREEN_DRAWS = 4  # screened candidates per random start


# ---------------------------------------------------------------------------
# design vector


@dataclass(frozen=True)
class DesignVector:
    """Ordered named design scalars with bounds and per-entry stage tags.

    Entries tagged 'fixed' are carried for bookkeeping but are never moved
    by the optimizer; staged fits move only the entries whose tag matches
    the running stage.
    """

    names: tuple[str, ...]
    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    stages: tuple[str, ...]

    def __post_init__(self):
        n = len(self.names)
        for arr_name in ("values", "lower", "upper"):
            arr = np.asarray(getattr(self, arr_name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{arr_name} must have shape ({n},)")
            object.__setattr__(self, arr_name, arr)
        if len(self.stages) != n:
            raise ValueError("stages length mismatch")
        if np.any(self.values < self.lower) or np.any(self.values > self.upper):
            bad = [
                self.names[i]
                for i in range(n)
                if not self.lower[i] <= self.values[i] <= self.upper[i]
            ]
            raise ValueError(f"values outside bounds: {', '.join(bad)}")

    @classmethod
    def from_mechanism(cls, mech: MechanismGraph) -> "DesignVector":
        _one_design(mech, "a DesignVector")
        bindings = list(mech.parameters.values())
        return cls(
            names=tuple(b.name for b in bindings),
            values=np.array([mech.get_parameter(b.name) for b in bindings]),
            lower=np.array([b.min for b in bindings]),
            upper=np.array([b.max for b in bindings]),
            stages=tuple(b.stage for b in bindings),
        )

    def as_dict(self) -> "OrderedDict[str, float]":
        return OrderedDict(zip(self.names, (float(v) for v in self.values)))

    def apply(self, mech: MechanismGraph) -> MechanismGraph:
        return mech.with_parameters(self.as_dict())

    def with_values(self, values) -> "DesignVector":
        return replace(self, values=np.asarray(values, dtype=float))

    def indices_for_stage(self, stage: str) -> list[int]:
        wanted = STAGE_ORDER if stage == "all" else (stage,)
        return [i for i, s in enumerate(self.stages) if s in wanted]


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the staged optimizer; defaults match the shipped fits."""

    seed: int = 0
    multistarts: int = 10
    maxiter: int = 150
    polish: bool = True


@dataclass(frozen=True)
class StartRecord:
    """One multistart outcome (costs are true, unpenalized where finite)."""

    index: int
    cost: float
    feasible: bool
    iterations: int
    polished: bool
    message: str


@dataclass(frozen=True)
class FitReport:
    """Outcome of one stage fit, or of the staged pipeline (nested)."""

    stage: str
    initial_cost: float
    final_cost: float
    iterations: int
    winner_start: int
    constraint_violation_max: float
    design: DesignVector
    starts: tuple[StartRecord, ...] = ()
    incumbent_history: tuple[tuple[int, float], ...] = ()
    stage_reports: "OrderedDict[str, FitReport]" = field(default_factory=OrderedDict)
    flags: tuple[str, ...] = ()
    seed: int = 0
    multistarts: int = 1
    samples: int = 0


# ---------------------------------------------------------------------------
# residuals and cost


def cost(y) -> float:
    """Mean squared residual, degrees squared: (y^T y) / N."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise EmptyResidual("cannot take the mean square of an empty residual")
    return float(y @ y / y.size)


def _check_targets(targets: TargetGait) -> None:
    """GridMismatch unless the targets lie on the sweep grid of at least
    GAIT_MIN_SAMPLES phases, the floor a target file has; SchemaError
    naming the series when an angle is not finite or is beyond
    TARGET_ANGLE_MAX_DEG in magnitude."""
    n = len(targets.phi)
    if n < GAIT_MIN_SAMPLES:
        raise GridMismatch(f"a wingbeat target needs at least {GAIT_MIN_SAMPLES} phases, got {n}")
    if not np.array_equal(targets.phi, phase_grid(n)):
        raise GridMismatch(
            "targets must lie on the uniform phase grid 2*pi*k/N used by sweeps"
        )
    for name in ("shoulder_deg", "elbow_deg"):
        if not np.all(np.abs(getattr(targets, name)) <= TARGET_ANGLE_MAX_DEG):
            raise SchemaError(
                f"targets.{name}",
                f"target angles must be finite and within +-{TARGET_ANGLE_MAX_DEG:g} degrees",
            )


def _stage_parts(series: Mapping, targets: TargetGait, stage: str):
    """(series key, angle errors, penalized samples) of each fitted series."""
    fitted = (
        ("theta_s_deg", targets.shoulder_deg, ("humerus", "all")),
        ("theta_e_deg", targets.elbow_deg, ("radius", "all")),
    )
    for key, target, stages in fitted:
        if stage in stages:
            diff = series[key] - target
            yield key, diff, ~series["ok"] | ~np.isfinite(diff)


def _stage_residuals(series: Mapping, targets: TargetGait, stage: str) -> np.ndarray:
    """The stage's angle errors of a sweep; failed samples get PENALTY_DEG.
    A batched sweep gives a row per design."""
    return np.concatenate([
        np.where(bad, PENALTY_DEG, diff) if np.any(bad) else diff
        for _, diff, bad in _stage_parts(series, targets, stage)
    ], axis=-1)


def _stage_jacobian(series: Mapping, tangents: dict, targets: TargetGait, stage: str):
    """d(_stage_residuals) along the tangents' directions, (residuals, n).

    PENALTY_DEG entries are constants: their rows, and any non-finite
    tangent, are zero.
    """
    parts = []
    for key, _, bad in _stage_parts(series, targets, stage):
        d = tangents[key].T
        parts.append(np.where(np.isfinite(d) & ~bad[:, None], d, 0.0))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# constraint vector


def constraint_names(mech: MechanismGraph) -> list[str]:
    """Entry names matching evaluate_constraints, in order."""
    names = []
    for entry in mech.constraints:
        names += [entry.name + "+", entry.name + "-"] if entry.kind == "symmetry" else [entry.name]
    return names


def _constraint_core(
    mech: MechanismGraph,
    series: Mapping,
    tangents: dict | None = None,
    dgeom: np.ndarray | None = None,
):
    """The values of ``mech.constraints`` on a sweep: inequalities are
    feasible at <= 0, symmetry equalities at h = 0.  Quantities undefined
    because a loop never assembled become CONSTRAINT_PENALTY.

    Given the sweep's ``tangents`` along the rows of ``dgeom`` (n, P), the
    values come with their Jacobian (entries, n): a max or min entry takes
    the derivative at its active sample; a penalty or step-function entry,
    and an entry whose read-set no row of ``dgeom`` moves, gets zeros.
    """
    geom = mech.geom
    floor = math.radians(MIN_TRANSMISSION_DEG)
    assembled = -1.0 if bool(np.all(series["ok"])) else CONSTRAINT_PENALTY
    jac = tangents is not None
    zero = np.zeros(len(dgeom)) if jac else None
    values, rows = [], []
    for entry in mech.constraints:
        kind = entry.kind
        k = None  # the active sample of a margin or transmission entry
        if kind == "margin":
            m = series["margin"][entry.closure]
            finite = np.isfinite(m)
            m = np.where(finite, m, CONSTRAINT_PENALTY)
            k = int(np.argmax(m))
            values.append(float(m[k]))
            k = k if finite[k] else None
        elif kind == "transmission":
            t = series["transmission"][entry.closure]
            if np.all(np.isfinite(t)):
                k = int(np.argmin(t))
                values.append(floor - float(t[k]))
            else:
                values.append(CONSTRAINT_PENALTY)
        elif kind == "assembled":
            values.append(assembled)
        elif kind == "symmetry":
            values.append(geom[entry.slot] - entry.value)
        else:  # a four-bar entry, a signed sum of its spans' lengths
            deltas = [geom[i : i + 2] - geom[j : j + 2] for i, j in entry.spans]
            spans = [float(np.hypot(*delta)) for delta in deltas]
            if kind == "grashof":  # shortest + longest - (the other two)
                s, p, q, l = sorted(range(4), key=spans.__getitem__)
                signed = lambda v: v[s] + v[l] - (v[p] + v[q])
            else:  # crank - the shortest other span
                other = min((0, 2, 3), key=spans.__getitem__)
                signed = lambda v: v[1] - v[other]
            values.append(signed(spans))
        if not jac:
            continue
        if kind == "symmetry":
            row = dgeom[:, entry.slot]
        elif not np.any(dgeom.take(entry.reads, axis=1)):
            row = zero
        elif kind in ("grashof", "crank"):  # d|delta| = d(delta) . delta / |delta|
            row = signed([(dgeom[:, i : i + 2] - dgeom[:, j : j + 2]) @ delta / span
                          for (i, j), delta, span in zip(entry.spans, deltas, spans)])
        elif k is None:
            row = zero
        else:
            d = tangents[kind][entry.closure][:, k]
            row = np.where(np.isfinite(d), d, 0.0)
        rows.append(-row if kind == "transmission" else row)
    values = np.asarray(values, dtype=float)
    if not jac:
        return values
    return values, np.array(rows).reshape(len(values), len(dgeom))


def evaluate_constraints(mech: MechanismGraph, samples: int = 360) -> np.ndarray:
    """The constraint vector f_c; the design is feasible iff all <= 0.

    Symmetry equalities h = 0 appear as consecutive pairs (h, -h).  A
    candidate design q is evaluated as ``evaluate_constraints(q.apply(mech))``.
    Entries are always finite; see constraint_names for labels.
    """
    _one_design(mech, "evaluate_constraints")
    return _published(mech, _constraint_core(mech, sweep_series(mech, samples, strict=False)))


def _published(mech: MechanismGraph, values: np.ndarray) -> np.ndarray:
    """f_c of the entry values: a symmetry equality h = 0 as the pair (h, -h)."""
    pairs = [[v, -v] if e.kind == "symmetry" else [v] for e, v in zip(mech.constraints, values)]
    return np.array([v for pair in pairs for v in pair])


# ---------------------------------------------------------------------------
# the stage optimizer


class _Point:
    """One evaluated design: its graph and sweep, the stage's residuals and
    cost, computed at once, and the constraint values, the violation, the
    tangent pass along the rows of ``dgeom`` and the Jacobians, each when
    first read.  The polish reads residuals and their Jacobian alone."""

    def __init__(self, graph: MechanismGraph, series: Mapping, targets: TargetGait, stage: str,
                 dgeom: np.ndarray | None = None):
        self.graph = graph
        self.series = series
        self.targets, self.stage, self.dgeom = targets, stage, dgeom
        self.residuals = _stage_residuals(series, targets, stage)
        self.cost = cost(self.residuals)

    @functools.cached_property
    def constraints(self) -> np.ndarray:
        """The values of every constraint entry, one per entry."""
        return _constraint_core(self.graph, self.series)

    @functools.cached_property
    def violation(self) -> float:
        """max(0, worst entry of f_c), so a symmetry equality h counts as
        |h|.  A satisfied pair (0.0, -0.0) has the max -0.0; adding 0.0
        makes it +0.0."""
        return float(np.max(_published(self.graph, self.constraints), initial=0.0)) + 0.0

    @property
    def feasible(self) -> bool:
        return self.violation <= FEASIBILITY_TOL

    @property
    def gradient(self) -> np.ndarray:
        """d(cost)/dx: 2 J^T r / N."""
        return 2.0 * (self.residual_jacobian.T @ self.residuals) / self.residuals.size

    @functools.cached_property
    def tangents(self) -> dict:
        """The sweep's tangents along the rows of ``dgeom``, a stage's live
        directions."""
        return sweep_tangents(self.series, self.dgeom)

    @functools.cached_property
    def residual_jacobian(self) -> np.ndarray:
        """d(residuals)/dx, a column per live parameter."""
        return _stage_jacobian(self.series, self.tangents, self.targets, self.stage)

    @functools.cached_property
    def constraint_jacobian(self) -> np.ndarray:
        """d(constraints)/dx, a row per entry and a column per live parameter."""
        return _constraint_core(self.graph, self.series, self.tangents, self.dgeom)[1]


class _StageProblem:
    """A stage's live parameters, and its trial points over them.

    The live parameters are the stage-tagged ones whose geom slot a fit
    reads: the driver or an angle-output offset, or a slot in the read-set
    of a tangent step or a constraint entry (every stage-tagged one on a
    mechanism with no plan).  ``index`` holds their DesignVector positions
    and ``slots`` their geom slots; the others are dead, and every trial
    leaves them at the values they have in ``mech``.  A trial x has an
    entry per live parameter.  It is clipped to the box and written into
    their slots of a graph copy, so it needs no bounds check.

    The analytic steps whose read-set holds no live slot (in the reference's
    radius stage, the crank and the humerus dyad) give the same results at
    every trial.  ``frozen`` solves them once, on the sweep grid, and each
    trial's sweep takes their results from it and runs only the other
    steps (solver._solve_steps); it is None when every step reads a live
    slot.  It belongs to this problem alone: a new problem solves its own.

    ``at(x)`` is the _Point of a trial x.  A last-point memo, keyed on the
    bytes of x as the caller hands it, keeps it: the sweep, residuals and
    cost at that x, and the constraint values and the Jacobians (a column
    per live parameter, from one tangent pass along the rows of ``dgeom``)
    once something reads them.

    The descent sees the live entries of the constraint vector: those whose
    read-set meets a live slot, split into the inequalities ``ineq_rows``
    and the symmetry equalities ``eq_rows``.  The others cannot move in
    the stage; a point's ``violation`` and ``feasible`` still check every
    entry.
    """

    def __init__(self, mech, targets, stage, options: FitOptions):
        self.base = DesignVector.from_mechanism(mech)
        self.index = tagged = self.base.indices_for_stage(stage)
        if not tagged:
            raise FittingError(f"no parameters tagged for stage {stage!r}")
        self.mech = mech
        self.targets = targets
        self.stage = stage
        self.options = options
        self.samples = len(targets.phi)
        if mech.tangent_steps is not None:
            reads = {mech._driver_slot, *(out[-1] for out in mech._angle_outputs.values())}
            reads.update(*(step.reads for _, step in mech.tangent_steps),
                         *(entry.reads for entry in mech.constraints))
            self.index = [i for i in tagged if mech._targets[self.base.names[i]] in reads]
        self.slots = [mech._targets[self.base.names[i]] for i in self.index]
        self.lower = self.base.lower[self.index]
        self.upper = self.base.upper[self.index]
        self.x0 = self.base.values[self.index]
        self.dgeom = np.zeros((len(self.slots), mech.geom.size))
        self.dgeom[range(len(self.slots)), self.slots] = 1.0
        moved = [i for i, e in enumerate(mech.constraints) if set(e.reads) & set(self.slots)]
        self.eq_rows = [i for i in moved if mech.constraints[i].kind == "symmetry"]
        self.ineq_rows = [i for i in moved if mech.constraints[i].kind != "symmetry"]
        self.frozen = None
        if mech.steps is not None:
            fixed = [entry for entry in mech.steps if set(entry[1].reads).isdisjoint(self.slots)]
            if fixed:
                self.frozen = _solve_steps(mech, self.samples, fixed)
        self._key: bytes | None = None
        self._point: _Point | None = None  # the point at _key

    def clip(self, x) -> np.ndarray:
        """x moved into the box: the point at(x) evaluates."""
        return np.clip(x, self.lower, self.upper)

    def at(self, x) -> _Point:
        """The _Point of the box point clip(x): one sweep per new x."""
        key = np.asarray(x, dtype=float).tobytes()
        if key != self._key:
            m = self.mech.copy()
            m.geom[self.slots] = self.clip(x)
            series = sweep_series(m, self.samples, strict=False, _frozen=self.frozen)
            self._key, self._point = key, _Point(m, series, self.targets, self.stage, self.dgeom)
        return self._point


def _screened_starts(problem: _StageProblem, rng, k: int) -> list[np.ndarray]:
    """k starts: the nominal design, then the k - 1 best of SCREEN_DRAWS *
    (k - 1) candidates drawn uniformly in the box.

    Each candidate gets one non-strict sweep (sensitivity._sweep_designs),
    and the ranking is (failed samples, stage cost, draw index): candidates
    that assemble everywhere come first, then the least failing ones.
    """
    count = SCREEN_DRAWS * (k - 1)
    candidates = problem.lower + rng.uniform(size=(count, len(problem.x0))) * (
        problem.upper - problem.lower)
    names = [problem.base.names[i] for i in problem.index]

    def read(series):
        failed = np.count_nonzero(~series["ok"], axis=-1)
        return failed, _stage_residuals(series, problem.targets, problem.stage)

    rows = _sweep_designs(problem.mech, [dict(zip(names, c)) for c in candidates],
                          problem.samples, read)
    keys = sorted((int(failed), cost(resid), i) for i, (failed, resid) in enumerate(rows))
    return [problem.x0] + [candidates[i] for *_, i in keys[: k - 1]]


def _outcome(problem: _StageProblem, x: np.ndarray, iterations: int, message: str,
             budget: bool = False, polished: bool = False) -> tuple:
    """A start's outcome at its final box point x, with the point's floats
    read at once, so no point outlives its start: (x, cost, feasible,
    violation, iterations, status message, budget-limited, polished)."""
    point = problem.at(x)
    return x, point.cost, point.feasible, point.violation, iterations, message, budget, polished


def _run_start(problem: _StageProblem, x0: np.ndarray) -> tuple:
    """One SLSQP descent over the live parameters from the box point x0,
    and its _outcome.

    x is the least-cost feasible point the descent evaluated, or its last
    point when it evaluated none: SLSQP walks an infeasible path and may
    stop there on its budget.  The polish then starts from x.
    """
    opts = problem.options
    best: tuple[float, np.ndarray | None] = (math.inf, None)

    def objective(x) -> float:
        nonlocal best
        point = problem.at(x)
        if point.cost < best[0] and point.feasible:
            best = (point.cost, problem.clip(x))
        return point.cost

    # SLSQP takes equalities as h = 0 and inequalities as g >= 0.
    constraints = [
        {"type": kind,
         "fun": lambda x, rows=rows, sign=sign: sign * problem.at(x).constraints[rows],
         "jac": lambda x, rows=rows, sign=sign: sign * problem.at(x).constraint_jacobian[rows]}
        for kind, rows, sign in (("eq", problem.eq_rows, 1.0), ("ineq", problem.ineq_rows, -1.0))
        if rows
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy chatters near bound-active points
        result = minimize(
            objective,
            x0,
            method="SLSQP",
            jac=lambda x: problem.at(x).gradient,
            bounds=list(zip(problem.lower, problem.upper)),
            constraints=constraints,
            options={"maxiter": opts.maxiter},
        )
    x = best[1] if best[1] is not None else problem.clip(result.x)
    iterations = int(result.nit)
    message = str(result.message)
    budget = int(result.status) == 9  # SLSQP: 9 means the iteration limit
    polished = False
    if opts.polish:
        x_new = _polish(problem, x)
        if x_new is not None:
            x, polished = x_new, True
    return _outcome(problem, x, iterations, message, budget, polished)


def _polish(problem: _StageProblem, x: np.ndarray) -> np.ndarray | None:
    """Bound-constrained least-squares refinement of the live parameters,
    accepted only when it strictly improves the cost and keeps the
    constraint vector feasible."""
    before = problem.at(x).cost
    if before == 0.0:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = least_squares(
            lambda x: problem.at(x).residuals,
            x,
            jac=lambda x: problem.at(x).residual_jacobian,
            bounds=(problem.lower, problem.upper),
            method="trf",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
            max_nfev=200 * (len(x) + 1),
        )
    x_new = problem.clip(result.x)
    point = problem.at(x_new)
    if point.cost < before and point.feasible:
        return x_new
    return None


def optimize_stage(
    mech: MechanismGraph,
    targets: TargetGait,
    stage: str,
    options: FitOptions | None = None,
) -> FitReport:
    """Fit one stage's parameters to the targets with multistart descent.

    Runs options.multistarts independent SLSQP descents of at most
    options.maxiter iterations: the nominal design first, then the
    screened best of SCREEN_DRAWS uniform draws per further start (see
    _screened_starts).  Keeps the feasible result of least cost (ties
    broken by start index), and reports every start.  A nominal design that
    already tracks the targets feasibly is its own single start, "initial
    design already optimal", and nothing descends; so is a stage none of
    whose parameters moves a fitted output.  Raises NoFeasibleStart when no
    start ends feasible; a winner that stopped on the iteration budget is
    flagged 'budget_exhausted', not raised.
    """
    if options is None:
        options = FitOptions()
    if stage not in STAGE_CHOICES:
        raise ValueError(f"stage must be one of {STAGE_CHOICES}, got {stage!r}")
    _check_targets(targets)
    problem = _StageProblem(mech, targets, stage, options)
    initial_cost = problem.at(problem.x0).cost

    if initial_cost <= 1e-12 and problem.at(problem.x0).feasible:
        # Already tracking the target; nothing to descend.
        outcomes = [_outcome(problem, problem.x0, 0, "initial design already optimal")]
    elif not problem.index:
        outcomes = [_outcome(problem, problem.x0, 0, "no stage parameter moves a fitted output")]
    else:
        k = max(1, int(options.multistarts))
        starts = _screened_starts(problem, np.random.default_rng(options.seed), k)
        # Each start reads its outcome off its own point (_outcome) before
        # the next one moves the problem's last-point memo.
        outcomes = (_run_start(problem, x0) for x0 in starts)

    records: list[StartRecord] = []
    incumbent: tuple[float, int] | None = None
    incumbent_x = incumbent_violation = None
    history: list[tuple[int, float]] = []
    budget_flags: set[int] = set()
    for index, (x, final, feasible, violation, iterations, message, budget,
                polished) in enumerate(outcomes):
        records.append(
            StartRecord(
                index=index,
                cost=final,
                feasible=feasible,
                iterations=iterations,
                polished=polished,
                message=message,
            )
        )
        if budget:
            budget_flags.add(index)
        if feasible and (incumbent is None or (final, index) < incumbent):
            incumbent = (final, index)
            incumbent_x, incumbent_violation = x, violation
        if incumbent is not None:
            history.append((index, incumbent[0]))

    if incumbent is None:
        raise NoFeasibleStart(
            f"none of {len(records)} starts produced a feasible {stage} design"
        )
    final_cost, winner = incumbent
    values = problem.base.values.copy()
    values[problem.index] = incumbent_x
    return FitReport(
        stage=stage,
        initial_cost=initial_cost,
        final_cost=final_cost,
        iterations=records[winner].iterations,
        winner_start=winner,
        constraint_violation_max=incumbent_violation,
        design=problem.base.with_values(values),
        starts=tuple(records),
        incumbent_history=tuple(history),
        flags=("budget_exhausted",) if winner in budget_flags else (),
        seed=options.seed,
        multistarts=len(records),
        samples=problem.samples,
    )


def _closing_point(mech: MechanismGraph, targets: TargetGait) -> _Point:
    """A design evaluated over both stages: one plain sweep."""
    return _Point(mech, sweep_series(mech, len(targets.phi), strict=False), targets, "all")


def optimize_armwing(
    mech: MechanismGraph,
    targets: TargetGait,
    options: FitOptions | None = None,
) -> FitReport:
    """Staged fit: shoulder-drive parameters first, then elbow-drive.

    Stage 1 fits humerus-tagged parameters against the shoulder target;
    stage 2 starts from that result with the humerus entries excluded from
    its design vector (frozen bit-exactly) and fits radius-tagged
    parameters against the elbow target.  The order is fixed: the elbow
    chain rides on the shoulder chain.  Both stages must have tagged
    parameters, which is checked before either runs (FittingError).

    The staged report's initial and final costs and its constraint
    violation are those of the input design and of the fitted one against
    both targets (_closing_point): the same definitions every stage report
    uses.  Its ``multistarts`` is the most starts either stage ran.
    """
    if options is None:
        options = FitOptions()
    _check_targets(targets)
    tagged = {binding.stage for binding in mech.parameters.values()}
    for stage in STAGE_ORDER:
        if stage not in tagged:
            raise FittingError(f"no parameters tagged for stage {stage!r}")

    initial_cost = _closing_point(mech, targets).cost
    current = mech
    stage_reports: "OrderedDict[str, FitReport]" = OrderedDict()
    for stage in STAGE_ORDER:
        report = optimize_stage(current, targets, stage, options)
        stage_reports[stage] = report
        current = report.design.apply(mech)
    closing = _closing_point(current, targets)
    return FitReport(
        stage="staged",
        initial_cost=initial_cost,
        final_cost=closing.cost,
        iterations=sum(r.iterations for r in stage_reports.values()),
        winner_start=-1,
        constraint_violation_max=closing.violation,
        design=stage_reports[STAGE_ORDER[-1]].design,
        stage_reports=stage_reports,
        flags=tuple(f"budget_exhausted:{stage}" for stage in STAGE_ORDER
                    if "budget_exhausted" in stage_reports[stage].flags),
        seed=options.seed,
        multistarts=max(r.multistarts for r in stage_reports.values()),
        samples=len(targets.phi),
    )
