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
boundary and report exactly where a perturbed design stops closing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .linkage import MechanismGraph
from .errors import SolveError
from .solver import GaitTrajectory, sweep_gait, sweep_series

__all__ = [
    "SensitivityResult",
    "sensitivity_sweep",
    "sensitivity_rank",
]


@dataclass(frozen=True)
class SensitivityResult:
    """Sensitivity of one parameter over a family of scale factors.

    ``trajectories`` maps scale -> GaitTrajectory for scales that swept
    cleanly; ``failures`` maps scale -> first failing phase (radians) for
    those that did not.  ``deviations`` maps scale -> max wingtip
    displacement from the nominal sweep (mm, NaN when incomparable).
    ``score_mm_per_pct`` is the central-difference score at the two scales
    nearest 1.0.
    """

    parameter: str
    nominal: float
    scales: tuple[float, ...]
    samples: int
    score_mm_per_pct: float
    trajectories: dict[float, GaitTrajectory] = field(repr=False)
    failures: dict[float, float]
    deviations: dict[float, float]


def _tip_series(mech: MechanismGraph, name: str, scale: float, samples: int):
    """Non-raising wingtip path for one parameter scale: (ok mask, tip)."""
    perturbed = mech.with_parameters({name: mech.get_parameter(name) * scale})
    series = sweep_series(perturbed, samples, strict=False)
    return series["ok"], series["tip"]


def _pair_score(tips, lo_scale: float, hi_scale: float) -> float:
    """Max wingtip displacement between two scales, per 1% of parameter.

    ``tips(scale)`` gives the (ok mask, tip path) of the sweep at a scale.
    Displacement is taken over phases where both perturbed sweeps
    assembled; if they share none, the parameter is scored infinitely
    sensitive (the perturbation destroys assembly outright).
    """
    (ok_lo, tip_lo), (ok_hi, tip_hi) = tips(lo_scale), tips(hi_scale)
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
    family [1.0]).
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

    deviations: dict[float, float] = {}
    base = trajectories.get(1.0)
    for scale in scales:
        traj = trajectories.get(scale)
        if traj is None or base is None:
            deviations[scale] = float("nan")
        else:
            gap = np.linalg.norm(traj.tip_path - base.tip_path, axis=-1)
            deviations[scale] = float(np.max(gap))

    def tips(scale):
        traj = trajectories.get(scale)
        if traj is None:  # failed strictly; score the samples that assemble
            return _tip_series(mech, param, scale, samples)
        return np.ones(samples, dtype=bool), traj.tip_path

    lo = max((s for s in scales if s < 1.0), default=1.0)
    hi = min((s for s in scales if s > 1.0), default=1.0)
    score = 0.0 if lo == hi else _pair_score(tips, lo, hi)

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
    parameters=None,
) -> list[tuple[str, float]]:
    """Rank parameters by central-difference score at scales 1 +- delta.

    Descending by score with a deterministic name tie-break, so parameters
    no output depends on (score exactly 0) sort last.  ``delta`` must lie
    in (0, 0.1].
    """
    if not 0.0 < delta <= 0.1:
        raise ValueError(f"delta must be in (0, 0.1], got {delta!r}")
    names = list(parameters) if parameters is not None else mech.parameter_names()
    lo, hi = 1.0 - delta, 1.0 + delta
    scored = [
        (name, _pair_score(partial(_tip_series, mech, name, samples=samples), lo, hi))
        for name in names
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored
