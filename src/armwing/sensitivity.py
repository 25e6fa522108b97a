"""Parameter sensitivity of the wingtip path to design perturbations.

Each design parameter is scaled multiplicatively around its nominal value
and the wingbeat re-swept; the sensitivity score is the largest wingtip
displacement between the two scales nearest 1.0, normalized per 1 percent
of parameter change.  Scores let high-leverage dimensions (where a small
print tolerance visibly changes the flapping path) be separated from
benign ones.

All operations work on private mechanism copies; the input mechanism's
parameter map is never touched.  Per-scale solver failures are recorded
in the result rather than raised, so a scan can cross the assemblability
boundary and report exactly where a perturbed design stops closing; so is
a scale that collapses a dyad leg to zero length (NonPositiveLength).

Scaled designs are swept as batches on the geometry array's design axis,
at most PASS_SAMPLES phase samples per pass (_sweep_designs, which also
screens a fit's random starts).  A design's row equals its own sweep bit
for bit, so scores do not depend on the pass size, which bounds the
working set: ranking the reference (66 designs) in one pass peaked at
9.8 MB of traced memory and took 10 ms, in 8-design passes 1.6 MB and
10 ms, in 4-design passes 1.0 MB and 12 ms (tracemalloc peak, best CPU
time of 15 ranks, shared 2-core VM).  A pass reads only ``ok`` and ``tip``
of its sweep, so no other entry of it is computed.  A mechanism with no
analytic plan sweeps on the Newton route, which takes one design a pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linkage import MechanismGraph
from .errors import NonPositiveLength, SolveError
from .solver import GaitTrajectory, sweep_gait, sweep_series

__all__ = [
    "SensitivityResult",
    "sensitivity_sweep",
    "sensitivity_rank",
]

PASS_SAMPLES = 8 * 361  # phase samples per batched sweep: 8 designs at 360
RANK_DELTA_MAX = 0.1


@dataclass(frozen=True)
class SensitivityResult:
    """Sensitivity of one parameter over a family of scale factors.

    ``trajectories`` maps scale -> GaitTrajectory for scales that swept
    cleanly; ``failures`` maps scale -> first failing phase (radians) for
    those that did not, NaN when the failure has no phase (a zero-length
    dyad leg fails every phase).  ``deviations`` maps scale -> max wingtip
    displacement from the nominal sweep (mm, NaN when incomparable).
    ``score_mm_per_pct`` is the central-difference score at the two scales
    nearest 1.0, infinite when either of those designs has a zero-length
    dyad leg.
    """

    parameter: str
    nominal: float
    scales: tuple[float, ...]
    samples: int
    score_mm_per_pct: float
    trajectories: dict[float, GaitTrajectory] = field(repr=False)
    failures: dict[float, float]
    deviations: dict[float, float]


def _sweep_designs(mech: MechanismGraph, designs, samples: int, read) -> list:
    """A row per design: each {parameter: value} map of ``designs`` set on
    ``mech``, swept non-strict, read by ``read(series)``.

    Designs go a pass at a time, batched on the geometry's design axis in
    passes of at most PASS_SAMPLES phase samples, one design a pass on the
    Newton route.  ``read`` returns a tuple of arrays with a leading design
    axis on a batched pass; a design's row is the tuple of its entries.
    """
    batched = mech.plan is not None
    per_pass = max(1, PASS_SAMPLES // (samples + 1)) if batched else 1
    rows = []
    for start in range(0, len(designs), per_pass):
        chunk = designs[start : start + per_pass]
        values = chunk[0]  # the Newton route's one design
        if batched:
            names = dict.fromkeys(name for design in chunk for name in design)
            values = {name: np.full(len(chunk), mech.get_parameter(name)) for name in names}
            for row, design in enumerate(chunk):
                for name, value in design.items():
                    values[name][row] = value
        series = sweep_series(mech.with_parameters(values), samples, strict=False)
        rows.extend(zip(*read(series)) if batched else [read(series)])
        del series  # one pass's solution in memory at a time
    return rows


def _tips(series) -> tuple:
    return series["ok"], series["tip"]


def _pair_score(lo, hi, lo_scale: float, hi_scale: float) -> float:
    """Max wingtip displacement between two scales, per 1% of parameter.

    ``lo`` and ``hi`` are the (ok mask, tip path) of the sweeps at the two
    scales.  Displacement is taken over phases where both perturbed sweeps
    assembled; if they share none, the parameter is scored infinitely
    sensitive (the perturbation destroys assembly outright).
    """
    (ok_lo, tip_lo), (ok_hi, tip_hi) = lo, hi
    both = ok_lo & ok_hi
    if not np.any(both):
        return float("inf")
    gap = np.linalg.norm(tip_hi[both] - tip_lo[both], axis=-1)
    return float(np.max(gap) / (100.0 * (hi_scale - lo_scale)))


def sensitivity_sweep(
    mech: MechanismGraph,
    param: str,
    scales,
    samples: int = 360,
) -> SensitivityResult:
    """Sweep one parameter over multiplicative ``scales`` (must include 1.0).

    Each scale gets its own full sweep on a private copy; failures are
    recorded with the first failing phase instead of raised.  The score is
    the per-1% wingtip displacement between the scales nearest 1.0 on each
    side (one-sided if the family only extends one way, 0 for the trivial
    family [1.0]), taken as sensitivity_rank takes it: from one batched,
    non-raising sweep of the two scales.
    """
    nominal = mech.get_parameter(param)  # raises UnknownParameter on a miss
    scales = tuple(float(s) for s in scales)
    if 1.0 not in scales:
        raise ValueError("scale family must include 1.0 (the nominal design)")

    trajectories: dict[float, GaitTrajectory] = {}
    failures: dict[float, float] = {}
    for scale in scales:
        perturbed = mech.with_parameters({param: nominal * scale})
        try:
            trajectories[scale] = sweep_gait(perturbed, samples)
        except SolveError as exc:
            failures[scale] = float("nan") if exc.phi is None else exc.phi
        except NonPositiveLength:
            failures[scale] = float("nan")

    deviations: dict[float, float] = {}
    base = trajectories.get(1.0)
    for scale in scales:
        traj = trajectories.get(scale)
        if traj is None or base is None:
            deviations[scale] = float("nan")
        else:
            gap = np.linalg.norm(traj.tip_path - base.tip_path, axis=-1)
            deviations[scale] = float(np.max(gap))

    lo = max((s for s in scales if s < 1.0), default=1.0)
    hi = min((s for s in scales if s > 1.0), default=1.0)
    score = 0.0
    if lo != hi:
        designs = [{param: nominal * lo}, {param: nominal * hi}]
        try:
            score = _pair_score(*_sweep_designs(mech, designs, samples, _tips), lo, hi)
        except NonPositiveLength:  # scored as a pair that shares no assembled phase
            score = float("inf")

    return SensitivityResult(
        parameter=param,
        nominal=float(nominal),
        scales=scales,
        samples=samples,
        score_mm_per_pct=score,
        trajectories=trajectories,
        failures=failures,
        deviations=deviations,
    )


def sensitivity_rank(
    mech: MechanismGraph,
    delta: float = 0.025,
    samples: int = 360,
) -> list[tuple[str, float]]:
    """Rank parameters by central-difference score at scales 1 +- delta.

    Descending by score with a deterministic name tie-break, so parameters
    no output depends on (score exactly 0) sort last.  ``delta`` must lie
    in (0, 0.1].  Its 2n scaled designs are swept in batched passes.  Every
    parameter is ranked; a subset's ranking is the full one filtered to it,
    bit for bit, since each score reads only its own two designs' sweeps.
    """
    if not 0.0 < delta <= RANK_DELTA_MAX:
        raise ValueError(f"delta must be in (0, {RANK_DELTA_MAX}], got {delta!r}")
    names = mech.parameter_names()
    lo, hi = 1.0 - delta, 1.0 + delta
    designs = [{name: mech.get_parameter(name) * s} for name in names for s in (lo, hi)]
    rows = _sweep_designs(mech, designs, samples, _tips)
    scored = [
        (name, _pair_score(rows[2 * i], rows[2 * i + 1], lo, hi))
        for i, name in enumerate(names)
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored
