"""Kinematic solving: single configurations, sweeps, assembly margins, and
their exact derivatives with respect to the design.

Two solve routes share the same mechanism graph and one step executor,
``_run_steps``, which places links by the tree, gear and dyad step records
compiled at validation (links, joints and geom slots resolved), vectorized
over a phase grid and a batch of designs.  Plane points are complex,
x + iy, and a placed link keeps exp(i theta) and its origin, so a point on
it is origin + exp(i theta) local, one product that every later point read
and the tangent pass reuse:

* the analytic route runs ``steps`` from the driven angle (dyads built
  with the circle-intersection construction; exact to machine precision,
  branch chosen by the per-loop flags), and
* the Newton route sets the free joint angles from its iterate q and runs
  ``newton_steps`` (tree and gear steps only).  The stacked loop-closure
  gaps of that pose are its residual.  Newton runs when no plan exists,
  when a caller forces it, or to polish a guess.

One forward-mode tangent pass, ``_tangents``, mirrors ``_run_steps`` step
for step over a solved one-design pose.  It carries a leading axis of n
directions in the slot space of ``geom`` (and, on a Newton pose, seeds on
the free angles), and returns exact derivatives of the link angles and
origins, the joint angles, the dyad margins and transmissions, and the
closure gaps.  Every step it runs, it runs on all n rows.  On an analytic
pose it runs ``tangent_steps``, the steps the angle outputs, margins and
transmissions read (not the reference's digit gear and digit), less any
step whose compiled read-set no direction moves: its results are exact
zeros.  Which directions to pass is the caller's choice; a fit passes
only the parameters it can read (fitting._StageProblem).  A Newton pose
runs every step, since its closure gaps read them all.  Its rules:

* tree step: dtheta_child = dtheta_parent + sign dalpha, and the child's
  origin moves with the anchor, less the rotated local point's change;
* gear step: dalpha_out = dratio value + ratio dvalue + radians(doffset);
* dyad step: the hinge H keeps |H - p| = r1 and |H - q| = r2, a 2x2
  solve per sample with determinant cross(H - p, H - q).

The Newton route's Jacobian d(gap)/dq is that pass seeded on the free
angles (``_closure_jacobian``).  A Newton pose's design derivatives
follow the implicit function theorem: gap(p, q) = 0 gives
dq/dp = -G_q^-1 G_p, one batched solve over the grid, and a second pass
seeded with dq/dp gives every total derivative (``_design_tangents``).
``sweep_tangents`` differentiates a sweep's angle outputs, margins and
transmissions.

``_solve_steps`` solves a subset of the analytic steps once, read-only,
on a sweep's grid; a sweep handed it (``sweep_series``'s internal
``_frozen``) takes their results from it and runs only the other steps,
bit for bit the plain sweep.  A stage fit freezes the steps its live
parameters cannot move (fitting._StageProblem).

``sweep_series`` solves and checks at once, and computes every other output
when a caller first reads it: the angle series (each unwrap on its own
read), the elbow and tip paths, the continuity figures, the analytic
route's free angles and, through ``_Solution.gap`` and ``residual``, the
closure gaps.  A sensitivity pass reads ok and tip alone; a fit reads ok,
the margins, the transmissions and one angle series.  A ``_Solution`` owns
a private copy of the geometry it was solved for, so what is read from it
later does not move when the graph's geometry is edited.

Every returned Configuration carries a residual certificate re-evaluated
from the closure equations; a configuration is only reported as solved
when that norm is at or below NEWTON_TOL_MM.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, MutableMapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NoConvergence,
    NonPositiveLength,
    NotAssemblable,
    SchemaError,
    SingularConfiguration,
    SingularJacobian,
)
from .fourbar import (
    COLLINEAR_TOL_RAD,
    assembly_margin_and_transmission,
    assembly_margin_and_transmission_tangent,
    circle_circle,
)
from .gait import phase_grid
from .linkage import GROUND, MechanismGraph

__all__ = [
    "Configuration",
    "GaitTrajectory",
    "solve_configuration",
    "sweep_gait",
    "sweep_series",
    "sweep_tangents",
    "NEWTON_TOL_MM",
    "NEWTON_MAX_ITER",
]

NEWTON_TOL_MM = 1e-9
NEWTON_MAX_ITER = 50
GAIT_MIN_SAMPLES = 8
METHODS = ("auto", "analytic", "newton")  # the solver routes a caller may ask for
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Configuration:
    """One solved mechanism pose.

    ``joint_angles`` maps every joint id to its angle (b-side link
    orientation minus a-side, radians); gear-slaved entries satisfy their
    coupling equation exactly.  ``points`` maps 'link:point' and
    'ground:pivot' keys, plus the named point outputs, to world (x, y) in
    millimetres.  ``residual_norm`` is the loop-closure certificate, mm.
    """

    phase: float
    joint_angles: dict[str, float]
    points: dict[str, tuple[float, float]]
    residual_norm: float


@dataclass(frozen=True)
class GaitTrajectory:
    """A swept wingbeat on a uniform phase grid.

    Angle series are degrees and unwrapped (continuous across the sweep);
    paths are world millimetres with shape (N, 2).  ``wrap_deviation_rad``
    is the largest joint-angle discontinuity, modulo one turn, between the
    continuation past the last sample and the first sample.

    ``configurations`` holds one Configuration per sample, each built when
    it is read, from the sweep's solution and a private copy of the swept
    geometry: later changes to the mechanism do not reach it.
    """

    phi: np.ndarray
    theta_s_deg: np.ndarray
    theta_e_deg: np.ndarray
    elbow_path: np.ndarray
    tip_path: np.ndarray
    configurations: Sequence[Configuration] = field(repr=False)
    wrap_deviation_rad: float
    max_step_rad: float
    residual_max: float

    def __len__(self) -> int:
        return len(self.phi)


class _Configurations(Sequence):
    """The per-sample Configurations of a grid solution, built on access."""

    def __init__(self, sol: "_Solution"):
        self._sol = sol

    def __len__(self) -> int:
        return len(self._sol.phi)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        return _configuration(self._sol[range(len(self))[k]])


def wrap_pi(angle):
    """Wrap to (-pi, pi]."""
    a = np.fmod(np.pi - np.asarray(angle, dtype=float), TWO_PI)
    a = np.where(a < 0.0, a + TWO_PI, a)
    return np.pi - a


class _Solution:
    """Dense solved state of a graph's designs over a scalar phase or a phase
    grid: arrays of shape batch + phase shape, plane points complex x + iy.

    It owns ``geom``, a private copy of the graph's geometry taken when it is
    built: editing the graph's geometry afterwards moves nothing read from
    it.  The closure gaps ``gap`` and their norm ``residual`` are computed
    when first read, and kept."""

    def __init__(self, graph: MechanismGraph, phi):
        self.graph = graph
        self.phi = np.asarray(phi, dtype=float)
        self.geom = geom = np.copy(graph.geom)
        batch = geom.shape[:-1]
        # Geometry slot-major: cols[i] is slot i per design, shaped to
        # broadcast over the phase axes (a plain scalar for one design).
        pad = (1,) * self.phi.ndim if batch else ()
        self.cols = geom.T.reshape(geom.shape[-1:] + batch + pad)
        # Entry i is the point whose x sits in slot i, in its link's frame.
        self.xy = self.cols[:-1] + 1j * self.cols[1:]
        shape = batch + self.phi.shape
        self.theta = {GROUND: np.zeros(shape)}
        self.turn: dict[str, np.ndarray] = {}  # link -> exp(i theta)
        self.origin: dict[str, np.ndarray] = {}  # link -> its frame's origin, world
        self.alpha: dict[str, np.ndarray] = {}
        self.ok = np.ones(shape, dtype=bool)
        self.margin: dict[str, np.ndarray] = {}
        self.transmission: dict[str, np.ndarray] = {}
        self.steps: list[tuple] = []  # the step list that placed the links
        self._whole = None  # (solution, index) this one was cut from

    def __getitem__(self, index) -> "_Solution":
        """One sample (int) or a range of samples (slice) of a grid solution.

        It shares this solution's geometry ``geom``, ``cols`` and ``xy`` (a
        sample of a batch drops their phase axis of length 1), and cuts its
        closure gaps from this solution's."""
        at = (slice(None),) * (self.geom.ndim - 1) + (index,)  # phase axis
        out = object.__new__(_Solution)
        out.graph, out.phi, out.geom = self.graph, self.phi[index], self.geom
        out.cols, out.xy = self.cols, self.xy
        if out.phi.ndim < self.phi.ndim and self.geom.ndim > 1:
            out.cols, out.xy = self.cols[..., 0], self.xy[..., 0]
        for name in ("theta", "turn", "origin", "alpha", "margin", "transmission"):
            setattr(out, name, {k: v[at] for k, v in getattr(self, name).items()})
        out.ok = self.ok[at]
        out.steps = self.steps
        out._whole = (self, at)
        return out

    @functools.cached_property
    def gap(self) -> np.ndarray:
        """The stacked closure gaps, shape (..., 2*loops)."""
        if self._whole is not None:
            whole, at = self._whole
            return whole.gap[at]
        return _closure_gaps(self, self.graph.gaps, self.ok.shape)

    @functools.cached_property
    def residual(self) -> np.ndarray:
        """The norm of the closure gaps per sample."""
        if self._whole is not None:
            whole, at = self._whole
            return whole.residual[at]
        return np.sqrt(np.sum(self.gap * self.gap, axis=-1))

    def read(self, table: str, key: str) -> np.ndarray:
        """The state table[key]: theta or origin of a link, alpha of a joint,
        margin or transmission of a loop."""
        return getattr(self, table)[key]

    def point_world(self, link_id: str, slot: int) -> np.ndarray:
        """The world point at ``slot`` of a link, or of ground, complex."""
        if link_id == GROUND:
            return self.xy[slot]
        return self.origin[link_id] + self.turn[link_id] * self.xy[slot]

    def place(self, link_id: str, theta, anchor, slot: int) -> None:
        """Set a link's orientation and its origin, so that its point at
        ``slot`` lands on the world point ``anchor``."""
        self.theta[link_id] = theta
        self.turn[link_id] = turn = np.cos(theta) + 1j * np.sin(theta)
        self.origin[link_id] = anchor - turn * self.xy[slot]

    def finish(self):
        """Fill unset joint angles from link orientations."""
        g = self.graph
        for jid, joint in g.joints.items():
            if jid not in self.alpha:
                self.alpha[jid] = self.theta[joint.b[0]] - self.theta[joint.a[0]]
        return self


def _closure_gaps(state, gaps, shape: tuple) -> np.ndarray:
    """point_world(a) - point_world(b) for each closure (a, b) in ``gaps``,
    of a _Solution or, as tangents, of a _Tangent: shape + (2*loops,), the
    x and y of each loop side by side."""
    out = np.empty(shape + (len(gaps),), dtype=complex)
    for i, (a, b) in enumerate(gaps):
        out[..., i] = state.point_world(*a) - state.point_world(*b)
    return out.view(float)


def _plane(z, shape: tuple) -> np.ndarray:
    """Complex points as float (x, y) on a last axis, broadcast to ``shape``
    (a ground point is one value for every sample)."""
    out = np.empty(shape + (1,), dtype=complex)
    out[..., 0] = z
    return out.view(float)


def _raise_first_failure(sol: _Solution) -> None:
    """Raise, with its phase, the first failed sample of the first failing
    dyad: one whose transmission is NaN or below COLLINEAR_TOL_RAD."""
    if all(np.all(t >= COLLINEAR_TOL_RAD) for t in sol.transmission.values()):
        return  # every dyad closed, away from collinear (NaN compares false)
    phi = np.atleast_1d(np.broadcast_to(sol.phi, sol.ok.shape))
    for step in sol.graph.plan:
        trans = np.atleast_1d(sol.transmission[step.closure])
        bad = np.isnan(trans)
        if np.any(bad):
            gap = float(np.nanmax(np.where(bad, sol.margin[step.closure], -np.inf)))
            raise NotAssemblable(
                f"loop {step.closure!r} cannot close (gap {gap:.6g} mm)",
                phi=float(phi[bad][0]),
            )
        singular = trans < COLLINEAR_TOL_RAD
        if np.any(singular):
            raise SingularConfiguration(
                f"loop {step.closure!r} at a branch-ambiguous (collinear) pose",
                phi=float(phi[singular][0]),
            )


def _solve_analytic(graph: MechanismGraph, phi, frozen=None) -> _Solution:
    """Execute the validated step order; vectorized over ``phi``.

    Failed samples are masked in ``sol.ok`` and NaNs propagate through
    dependent quantities, while per-loop assembly margins stay finite
    wherever computable; _raise_first_failure turns them into errors.
    The steps a ``frozen`` solution holds (see _solve_steps) are taken
    from it, not run.
    """
    return _run_steps(_Solution(graph, phi), graph.steps, frozen).finish()


def _solve_steps(graph: MechanismGraph, samples: int, steps) -> _Solution:
    """The analytic ``steps`` alone on sweep_series's grid of ``samples``
    phases and its wrap sample: a read-only partial solution that sweeps
    start from.

    ``steps`` are entries of ``graph.steps``, in their order, that include
    every step they read from.  The steps whose read-set misses a given set
    of slots do, since a read-set holds those of the steps it reads.  A
    sweep of a graph of the same topology, with geometry equal to
    ``graph``'s on their read-sets, takes their results from it
    (sweep_series's ``_frozen``).  Such sweeps share its arrays, so none is
    writeable.
    """
    _one_design(graph, "a frozen solve")
    sol = _run_steps(_Solution(graph, np.append(phase_grid(samples), TWO_PI)), steps)
    tables = (sol.theta, sol.turn, sol.origin, sol.alpha, sol.margin, sol.transmission)
    for array in (sol.phi, sol.geom, sol.cols, sol.xy, sol.ok,
                  *(value for table in tables for value in table.values())):
        array.flags.writeable = False
    return sol


def _check_frozen(mech: MechanismGraph, phi: np.ndarray, frozen: _Solution) -> None:
    """ValueError unless ``frozen`` was solved for ``mech``'s topology on
    the phases ``phi``, with geometry equal to ``mech.geom``, bit for bit,
    on its steps' read-sets."""
    if frozen.graph.steps is not mech.steps:
        raise ValueError("a frozen solution resumes a sweep of its own topology only")
    reads = sorted({slot for _, step in frozen.steps for slot in step.reads})
    if frozen.phi.tobytes() != phi.tobytes():
        raise ValueError("a frozen solution was solved on another phase grid")
    if (frozen.geom.shape != mech.geom.shape
            or frozen.geom[reads].tobytes() != mech.geom[reads].tobytes()):
        raise ValueError("the geometry differs from the frozen solution's on its read-sets")


def _forward(graph: MechanismGraph, phi, q) -> _Solution:
    """The pose with free joint angles ``q`` (shape (..., nq)) at ``phi``.

    Loops need not close: ``sol.gap`` is the Newton residual.
    """
    sol = _Solution(graph, phi)
    for k, jid in enumerate(graph.free_joints):
        sol.alpha[jid] = q[..., k]
    return _run_steps(sol, graph.newton_steps).finish()


def _run_steps(sol: _Solution, steps, frozen=None) -> _Solution:
    """Set the driven angle and place links by executing ``steps``; the one
    forward pass of both solve routes.  A step that ``frozen`` (a partial
    solution of the same grid and geometry) holds is not run: its results,
    and its failed samples, are taken from it.  Joint angles no step sets
    are left to finish()."""
    g = sol.graph
    drv = g._spec.driver
    sol.alpha[drv.joint] = drv.sign * sol.phi + np.radians(sol.cols[g._driver_slot])
    sol.steps = steps
    lent = ()
    if frozen is not None:
        lent = frozen.steps
        sol.ok = frozen.ok.copy()
    for entry in steps:
        kind, step = entry
        if entry in lent:
            for table, key in _results(kind, step):
                getattr(sol, table)[key] = getattr(frozen, table)[key]
                if table == "theta":
                    sol.turn[key] = frozen.turn[key]
        elif kind == "tree":
            theta = sol.theta[step.parent] + step.sign * sol.alpha[step.joint]
            sol.place(step.child, theta, sol.point_world(step.parent, step.anchor), step.local)
        elif kind == "gear":
            sol.alpha[step.joint_out] = (
                sol.cols[step.ratio] * _gear_input(sol, step)
                + np.radians(sol.cols[step.offset])
            )
        else:
            _place_dyad(sol, step)
    return sol


def _gear_input(state, step):
    """The input angle of a gear step, or its tangent: the joint angle an
    earlier step set, else the b-side minus the a-side link orientation."""
    if step.links is None:
        return state.read("alpha", step.joint_in)
    a, b = step.links
    return state.read("theta", b) - state.read("theta", a)


def _place_dyad(sol: _Solution, step) -> None:
    """Place a dyad's two links by intersecting circles about its anchors."""
    v1 = sol.xy[step.m1] - sol.xy[step.a1]  # the legs, link-local
    v2 = sol.xy[step.m2] - sol.xy[step.b2]
    r1 = np.hypot(v1.real, v1.imag)
    r2 = np.hypot(v2.real, v2.imag)
    if ((r1 <= 0.0) | (r2 <= 0.0)).any():
        raise NonPositiveLength(f"dyad leg through joint {step.hinge!r} has zero length")
    p = sol.point_world(*step.p_ref)
    q = sol.point_world(*step.q_ref)
    pxy = _plane(p, sol.ok.shape)
    qxy = _plane(q, sol.ok.shape)
    with np.errstate(invalid="ignore"):
        hinge, _h, d = circle_circle(pxy, r1, qxy, r2, step.sign)
        margin, trans = assembly_margin_and_transmission(d, r1, r2)
    bad = ~np.isfinite(hinge[..., 0])
    sol.margin[step.closure] = margin
    sol.transmission[step.closure] = np.where(bad, np.nan, trans)
    sol.ok &= ~bad
    theta1 = np.arctan2(hinge[..., 1] - pxy[..., 1], hinge[..., 0] - pxy[..., 0])
    theta1 = theta1 - _leg_angle(v1)
    theta2 = np.arctan2(hinge[..., 1] - qxy[..., 1], hinge[..., 0] - qxy[..., 0])
    theta2 = theta2 - _leg_angle(v2)
    sol.place(step.link1, theta1, p, step.a1)
    sol.place(step.link2, theta2, q, step.b2)


_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _leg_angle(v) -> np.ndarray:
    """A link-local leg's direction per design, by math.atan2: numpy's
    vector arctan2 loop can differ from libm in the last bit."""
    return np.asarray(_atan2(v.imag, v.real), dtype=float)


# ---------------------------------------------------------------------------
# tangent pass


class _Tangent:
    """Directional derivatives of a one-design _Solution's state.

    The rows of ``dgeom`` (shape (n, P)) are n directions in the slot space
    of ``geom``.  A tangent has the primal's shape behind a leading axis of
    all n rows (a phase-independent one may keep a phase axis of 1), or is
    the scalar 0.0 for a result of a step the pass skipped, which no row
    moves.  Ground does not move either.  The pass reads the primal's own
    complex plane state, ``sol.xy`` and ``sol.turn`` = exp(i theta): a world
    point origin + exp(i theta) local moves by d origin + exp(i theta)
    (i local dtheta + d local).
    """

    def __init__(self, sol: _Solution, dgeom: np.ndarray, dfree=None):
        g = sol.graph
        _one_design(sol, "a tangent pass")
        self.sol = sol
        self.n = len(dgeom)
        pad = (1,) * sol.phi.ndim
        # Entry i moves the point whose x sits in slot i, as in sol.xy.
        self.dxy = (dgeom[:, :-1] + 1j * dgeom[:, 1:]).T.reshape((-1, self.n) + pad)
        self.dcols = dgeom.T.reshape(dgeom.shape[-1:] + (self.n,) + pad)
        self.theta: dict[str, np.ndarray] = {}
        self.origin: dict[str, np.ndarray] = {}
        self.alpha = {g._spec.driver.joint: np.radians(self.dcols[g._driver_slot])}
        self.margin: dict[str, np.ndarray] = {}
        self.transmission: dict[str, np.ndarray] = {}
        for k, jid in enumerate(g.free_joints if dfree is not None else ()):
            self.alpha[jid] = dfree[..., k]

    def read(self, table: str, key: str):
        """The tangent table[key].  Ground reads as 0.0, and a joint angle
        no step set is its b-side less its a-side link orientation, as in
        _Solution.finish."""
        tangents = getattr(self, table)
        if key in tangents:
            return tangents[key]
        if table != "alpha":  # ground
            return 0.0
        joint = self.sol.graph.joints[key]
        return self.read("theta", joint.b[0]) - self.read("theta", joint.a[0])

    def point_world(self, link_id: str, slot: int) -> np.ndarray:
        """Tangent of sol.point_world."""
        if link_id == GROUND:
            return self.dxy[slot]
        sol = self.sol
        return self.read("origin", link_id) + sol.turn[link_id] * (
            1j * sol.xy[slot] * self.read("theta", link_id) + self.dxy[slot]
        )

    def place(self, link_id: str, anchor, slot: int, dtheta) -> None:
        """Set a link's angle tangent, and its origin's, by origin = anchor -
        exp(i theta) local with ``anchor`` the tangent of the anchor."""
        sol = self.sol
        self.theta[link_id] = dtheta
        self.origin[link_id] = anchor - sol.turn[link_id] * (
            1j * sol.xy[slot] * dtheta + self.dxy[slot]
        )

    def gaps(self) -> np.ndarray:
        """Tangent of sol.gap: (n, ..., 2*loops)."""
        return _closure_gaps(self, self.sol.graph.gaps, (self.n,) + self.sol.ok.shape)


def _tangents(sol: _Solution, dgeom: np.ndarray, dfree=None) -> _Tangent:
    """The forward-mode pass: ``sol``'s state differentiated along the rows
    of ``dgeom`` by the rules of _run_steps, step for step, on every row.

    On an analytic pose it runs only ``tangent_steps``, and skips a step
    whose read-set no row moves: its results are 0.0.  On a Newton pose,
    whose closure gaps read every link, it runs all of ``sol.steps``.
    ``dfree`` (shape (n, ..., nq)) seeds the free joint angles of a Newton
    pose; without it they do not move.  Samples that failed in ``sol`` get
    NaN tangents on every row of a step that runs.
    """
    g = sol.graph
    t = _Tangent(sol, dgeom, dfree)
    analytic = sol.steps is g.steps
    moved = np.any(dgeom != 0.0, axis=0)  # per slot
    for kind, step in g.tangent_steps if analytic else sol.steps:
        if analytic and not moved.take(step.reads).any():
            for table, key in _results(kind, step):
                getattr(t, table)[key] = 0.0
        elif kind == "tree":
            dtheta = t.read("theta", step.parent) + step.sign * t.read("alpha", step.joint)
            t.place(step.child, t.point_world(step.parent, step.anchor), step.local, dtheta)
        elif kind == "gear":
            # sol.alpha[joint_in] is the input value the primal step read.
            t.alpha[step.joint_out] = (
                t.dcols[step.ratio] * sol.alpha[step.joint_in]
                + sol.cols[step.ratio] * _gear_input(t, step)
                + np.radians(t.dcols[step.offset])
            )
        else:
            _dyad_tangent(t, step)
    return t


def _results(kind: str, step) -> list[tuple[str, str]]:
    """The (table, key) of each tangent a step writes."""
    if kind == "tree":
        return [("theta", step.child), ("origin", step.child)]
    if kind == "gear":
        return [("alpha", step.joint_out)]
    links = [(table, link) for table in ("theta", "origin") for link in (step.link1, step.link2)]
    return links + [("margin", step.closure), ("transmission", step.closure)]


def _dyad_tangent(t: _Tangent, step) -> None:
    """Tangent of _place_dyad.  The hinge H satisfies |H - p| = r1 and
    |H - q| = r2, so (H - p).(dH - dp) = r1 dr1 and (H - q).(dH - dq) =
    r2 dr2: one 2x2 solve per sample, determinant cross(H - p, H - q)."""
    sol = t.sol
    v1 = sol.xy[step.m1] - sol.xy[step.a1]  # the legs, link-local
    v2 = sol.xy[step.m2] - sol.xy[step.b2]
    dv1 = t.dxy[step.m1] - t.dxy[step.a1]
    dv2 = t.dxy[step.m2] - t.dxy[step.b2]
    r1, r2 = abs(v1), abs(v2)
    r1dr1 = (v1.conjugate() * dv1).real
    r2dr2 = (v2.conjugate() * dv2).real
    p = sol.point_world(*step.p_ref)
    q = sol.point_world(*step.q_ref)
    dp = t.point_world(*step.p_ref)
    dq = t.point_world(*step.q_ref)
    u = sol.turn[step.link1] * v1  # H - p
    w = sol.turn[step.link2] * v2  # H - q
    rhs1 = r1dr1 + (u.conjugate() * dp).real  # (H - p).dH
    rhs2 = r2dr2 + (w.conjugate() * dq).real  # (H - q).dH
    delta = q - p
    d = abs(delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        dh = 1j * (rhs2 * u - rhs1 * w) / (u.conjugate() * w).imag
        dtheta1 = ((u.conjugate() * (dh - dp)).imag - (v1.conjugate() * dv1).imag) / (r1 * r1)
        dtheta2 = ((w.conjugate() * (dh - dq)).imag - (v2.conjugate() * dv2).imag) / (r2 * r2)
        dd = (delta.conjugate() * (dq - dp)).real / d
        margin, trans = assembly_margin_and_transmission_tangent(
            d, r1, r2, dd, r1dr1 / r1, r2dr2 / r2
        )
    t.margin[step.closure] = margin
    t.transmission[step.closure] = trans
    t.place(step.link1, dp, step.a1, dtheta1)
    t.place(step.link2, dq, step.b2, dtheta2)


def _design_tangents(sol: _Solution, dgeom: np.ndarray) -> _Tangent:
    """Total derivatives of a solved design along the rows of ``dgeom``.

    A pose the analytic steps placed is differentiated directly.  A Newton
    pose (placed by ``newton_steps`` from free angles q) obeys gap(p, q) = 0,
    so by the implicit function theorem dq/dp = -G_q^-1 G_p, with G_p and
    G_q the gap tangents seeded on the directions and on each free angle;
    a second pass seeded with dq/dp gives every total derivative.
    """
    g = sol.graph
    nq = len(g.free_joints)
    if sol.steps is g.steps or nq == 0:
        return _tangents(sol, dgeom)
    n = len(dgeom)
    seeds = np.concatenate([dgeom, np.zeros((nq, dgeom.shape[1]))])
    dfree = np.zeros((n + nq,) + sol.ok.shape + (nq,))
    for k in range(nq):
        dfree[n + k, ..., k] = 1.0
    jac = np.moveaxis(_tangents(sol, seeds, dfree).gaps(), 0, -1)  # (..., 2m, n + nq)
    fine = np.all(np.isfinite(jac), axis=(-2, -1))[..., None, None]
    g_p = np.where(fine, jac[..., :n], 0.0)
    g_q = np.where(fine, jac[..., n:], np.eye(nq))
    dq = np.where(fine, np.linalg.solve(g_q, -g_p), np.nan)  # (..., nq, n)
    return _tangents(sol, dgeom, np.moveaxis(dq, -1, 0))


def sweep_tangents(series: Mapping, dgeom) -> dict:
    """Exact derivatives of a one-design sweep_series result along the rows
    of ``dgeom``: n directions in the slot space of the design's ``geom``,
    shape (n, P).

    Returns theta_s_deg and theta_e_deg, shape (n, N), and the per-loop
    margin and transmission dicts of (n, N) arrays (none on the Newton
    route).  An output whose read-set no direction moves is an exact zero.
    Otherwise a direction that moves nothing the output reads gives it a
    zero row at the assembled samples, and failed samples carry NaN on
    every row.  Unwrapping only adds constants, so the angle tangents are
    those of the principal values.
    """
    sol = series["_solution"]
    g = sol.graph
    t = _design_tangents(sol, np.asarray(dgeom, dtype=float))
    shape = (t.n,) + sol.ok.shape
    out = {key: {cid: np.broadcast_to(value, shape) for cid, value in getattr(t, key).items()}
           for key in ("margin", "transmission")}
    for name in ("theta_s", "theta_e"):
        table, key, sign, offset = g._angle_outputs[name]
        raw = t.read(table, key)
        out[f"{name}_deg"] = np.broadcast_to(sign * np.degrees(raw) + t.dcols[offset], shape)
    return out


# ---------------------------------------------------------------------------
# Newton route


def _closure_jacobian(sol: _Solution) -> np.ndarray:
    """d(sol.gap)/dq at a single-sample Newton pose, shape (2*loops, nq):
    the tangent pass seeded on each free angle."""
    g = sol.graph
    nq = len(g.free_joints)
    return _tangents(sol, np.zeros((nq, sol.geom.size)), np.eye(nq)).gaps().T


def _solve_newton(graph: MechanismGraph, phi: float, q0: np.ndarray) -> _Solution:
    """Damped Newton on the loop equations from guess ``q0``."""
    q = np.asarray(q0, dtype=float).copy()
    sol = _forward(graph, phi, q)
    norm = float(np.linalg.norm(sol.gap))
    for _ in range(NEWTON_MAX_ITER):
        if norm <= NEWTON_TOL_MM:
            break
        try:
            step = np.linalg.solve(_closure_jacobian(sol), -sol.gap)
        except np.linalg.LinAlgError:
            raise SingularJacobian(
                "loop-closure Jacobian is singular", phi=float(phi)
            ) from None
        scale = 1.0
        for _halving in range(30):
            q_try = q + scale * step
            trial = _forward(graph, phi, q_try)
            norm_try = float(np.linalg.norm(trial.gap))
            if norm_try < norm:
                q, sol, norm = q_try, trial, norm_try
                break
            scale *= 0.5
        else:
            raise NoConvergence(
                f"Newton stalled at residual {norm:.3e} mm", phi=float(phi)
            )
    if norm > NEWTON_TOL_MM:
        raise NoConvergence(
            f"residual {norm:.3e} mm after {NEWTON_MAX_ITER} iterations",
            phi=float(phi),
        )
    return sol


# ---------------------------------------------------------------------------
# public API


def _free_vector(graph, sol: _Solution) -> np.ndarray:
    """The free joint angles, shape (..., nq); nq may be 0."""
    angles = [sol.alpha[jid] for jid in graph.free_joints]
    return np.stack(angles, axis=-1) if angles else np.empty(sol.ok.shape + (0,))


def _one_design(state, what: str) -> None:
    """ValueError unless ``state`` (a graph or a _Solution) holds one design."""
    if state.geom.ndim != 1:
        raise ValueError(f"{what} takes a graph of one design, not a batch")


def _guess_vector(graph, guess, phi: float) -> np.ndarray:
    if guess is not None:
        angles = guess.joint_angles if isinstance(guess, Configuration) else guess
        missing = [jid for jid in graph.free_joints if jid not in angles]
        if missing:
            raise SchemaError(f"guess[{missing[0]}]", "a guess must name every free joint")
        return np.array([angles[jid] for jid in graph.free_joints])
    if graph.plan is not None:
        try:
            sol = _solve_analytic(graph, phi)
            _raise_first_failure(sol)
            return np.array([float(sol.alpha[jid]) for jid in graph.free_joints])
        except (NotAssemblable, SingularConfiguration):
            pass
    return np.array(
        [graph.home_pose.get(jid, 0.0) for jid in graph.free_joints]
    )


def _configuration(sol: _Solution) -> Configuration:
    """The Configuration of a single-sample solution."""
    graph = sol.graph
    _one_design(sol, "a Configuration")
    joint_angles = {jid: float(sol.alpha[jid]) for jid in graph.joints}
    points: dict[str, tuple[float, float]] = {}
    for (link_id, pname), slot in graph._xy.items():
        w = sol.point_world(link_id, slot)
        points[f"{link_id}:{pname}"] = (float(w.real), float(w.imag))
    for name, ref in graph._spec.point_outputs.items():
        key = f"{ref[0]}:{ref[1]}"
        points[name] = points[key]
    return Configuration(
        phase=float(sol.phi),
        joint_angles=joint_angles,
        points=points,
        residual_norm=float(sol.residual),
    )


def _analytic_route(mech: MechanismGraph, method: str) -> bool:
    """Whether ``method`` solves ``mech`` by its analytic plan: 'auto' when
    it has one, 'analytic' always (ValueError when it has none), 'newton'
    never.  Any other method is a ValueError."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "analytic" and mech.plan is None:
        raise ValueError("mechanism has no analytic solve plan")
    return method != "newton" and mech.plan is not None


def solve_configuration(
    mech: MechanismGraph,
    phi: float,
    guess: "Configuration | dict[str, float] | None" = None,
    method: str = "auto",
) -> Configuration:
    """Solve the mechanism at crank phase ``phi`` (radians).

    ``method``: 'auto' uses the analytic dyad plan when the topology has
    one, falling back to Newton; 'analytic' requires the plan; 'newton'
    forces the iterative route (seeded by ``guess``, else the analytic
    solution, else the stored home pose).  ``guess`` may be a previous
    Configuration or a mapping of every free joint's angle in radians
    (SchemaError when one is missing), such as ``mech.home_pose``.
    """
    analytic = _analytic_route(mech, method)
    _one_design(mech, "solve_configuration")
    phi = float(phi)
    if analytic:
        sol = _solve_analytic(mech, phi)
        _raise_first_failure(sol)
        if float(sol.residual) > NEWTON_TOL_MM:  # defensive; not expected
            sol = _solve_newton(mech, phi, _free_vector(mech, sol))
        return _configuration(sol)
    q0 = _guess_vector(mech, guess, phi)
    sol = _solve_newton(mech, phi, q0)
    return _configuration(sol)


class _Series(MutableMapping):
    """A sweep_series result: a mapping whose derived entries are computed
    when first read, and kept.  An entry of ``entries`` is its value, or a
    function of no arguments that makes it (no value is callable)."""

    def __init__(self, entries: dict):
        self._entries = entries
        self._pending = {key for key, value in entries.items() if callable(value)}

    def __getitem__(self, key):
        if key in self._pending:
            self._entries[key] = self._entries[key]()
            self._pending.discard(key)
        return self._entries[key]

    def __setitem__(self, key, value) -> None:
        self._entries[key] = value
        self._pending.discard(key)

    def __delitem__(self, key) -> None:
        del self._entries[key]
        self._pending.discard(key)

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def sweep_series(
    mech: MechanismGraph,
    samples: int = 360,
    strict: bool = True,
    method: str = "auto",
    *,
    _frozen: _Solution | None = None,
) -> MutableMapping:
    """Sweep one wingbeat and return dense arrays (no Configuration objects).

    Returns a mapping with phi, ok, residual, margin, transmission, free
    (free joint angle matrix), max_step_rad, wrap_deviation_rad,
    theta_s_deg, theta_e_deg, elbow, tip and _solution.  With ``strict``
    the first failing sample raises, annotated with its phase; otherwise
    failures are masked in ``ok``, and a design whose sweep is interrupted
    gets principal-valued angle series and NaN continuity figures.

    The solve, phi, ok, margin, transmission, _solution and the Newton
    route's free are computed at once.  Every other entry is computed when
    it is first read, and kept: a caller pays only for what it reads.  The
    solution owns a copy of the swept geometry, so editing ``mech.geom``
    afterwards changes no entry read later, nor any sweep_tangents result.

    A batch of B designs (``geom`` of shape (B, P)) sweeps in one pass: every
    array but phi gains a leading axis of B (ok (B, N), tip (B, N, 2), free
    (B, N, nq), max_step_rad (B,), ...), and row b equals the sweep of design
    b alone, bit for bit.  The Newton route sweeps one design at a time.

    ``_frozen``, internal to the fit, is a _solve_steps solution of some
    analytic steps on this grid.  The sweep takes those steps' results from
    it and runs only the others; every entry is the plain sweep's, bit for
    bit.  ValueError when the route is not analytic, or when ``mech.geom``
    differs from the frozen solution's on its steps' read-sets.
    """
    phi = phase_grid(samples)
    analytic = _analytic_route(mech, method)

    if analytic:
        # The wrap sample 2*pi rides along in the grid solve; it never
        # raises and is cut off every returned array.
        grid = np.append(phi, TWO_PI)
        if _frozen is not None:
            _check_frozen(mech, grid, _frozen)
        full = _solve_analytic(mech, grid, _frozen)
        sol = full[:samples]
        if strict:
            _raise_first_failure(sol)
        free = functools.cache(functools.partial(_free_vector, mech, sol))

        def wrap_free():
            return _free_vector(mech, full)[..., samples, :]
    else:
        if _frozen is not None:
            raise ValueError("a frozen solution resumes an analytic sweep only")
        _one_design(mech, "the Newton route")
        # Sequential continuation keeps only the free angles; one forward
        # pass over them then fills the grid solution.
        angles = np.full((samples, len(mech.free_joints)), np.nan)
        ok = np.ones(samples, dtype=bool)
        q = _guess_vector(mech, None, float(phi[0]))
        for k in range(samples):
            try:
                q = angles[k] = _free_vector(mech, _solve_newton(mech, float(phi[k]), q))
            except (NoConvergence, SingularJacobian, NotAssemblable):
                if strict:
                    raise
                ok[k] = False
        try:
            wrap = _free_vector(mech, _solve_newton(mech, TWO_PI, q))
        except (NoConvergence, SingularJacobian, NotAssemblable):
            wrap = np.full(len(mech.free_joints), np.nan)

        def free():
            return angles

        def wrap_free():
            return wrap

        sol = _forward(mech, phi, angles)
        sol.ok = ok

    all_ok = np.all(sol.ok, axis=-1)  # per design

    @functools.cache
    def continuity():
        # Steps run between consecutive samples, the last onto the wrap
        # sample; maxima over no free angles are 0.  A design that failed
        # somewhere gets NaN (NaN samples only slow the arithmetic).
        valid = all_ok & (len(phi) > 1)
        steps = deviation = math.nan
        if np.any(valid):
            swept, last = free(), wrap_free()
            cycle = np.concatenate([swept, last[..., None, :]], axis=-2)
            steps = np.abs(wrap_pi(np.diff(cycle, axis=-2))).max(axis=(-2, -1), initial=0.0)
            deviation = np.abs(wrap_pi(last - swept[..., 0, :])).max(axis=-1, initial=0.0)
        return np.where(valid, steps, math.nan)[()], np.where(valid, deviation, math.nan)[()]

    def angle(name):
        # Unwrapped only for a design that assembled at every sample.
        table, key, sign, offset = mech._angle_outputs[name]
        raw = sol.read(table, key)
        if np.any(all_ok):
            raw = np.where(all_ok[..., None], np.unwrap(raw, axis=-1), raw)
        return sign * np.degrees(raw) + sol.cols[offset]

    def point(name):
        return _plane(sol.point_world(*mech._point_outputs[name]), sol.ok.shape)

    return _Series({
        "phi": phi,
        "ok": sol.ok.copy(),
        "residual": lambda: sol.residual,
        "margin": dict(sol.margin),
        "transmission": dict(sol.transmission),
        "free": free,
        "max_step_rad": lambda: continuity()[0],
        "wrap_deviation_rad": lambda: continuity()[1],
        "theta_s_deg": functools.partial(angle, "theta_s"),
        "theta_e_deg": functools.partial(angle, "theta_e"),
        "elbow": functools.partial(point, "elbow"),
        "tip": functools.partial(point, "wingtip"),
        "_solution": sol,
    })


def sweep_gait(
    mech: MechanismGraph, samples: int = 360, method: str = "auto"
) -> GaitTrajectory:
    """Sweep one full wingbeat over the uniform N-sample phase grid.

    The sweep is strict: any sample that cannot be assembled raises with
    the failing phase in the message.  At least 8 samples are required.
    A batch of designs gives batched arrays and no configurations.
    """
    if samples < GAIT_MIN_SAMPLES:
        raise ValueError(
            f"a gait sweep needs at least {GAIT_MIN_SAMPLES} samples, got {samples}"
        )
    series = sweep_series(mech, samples, strict=True, method=method)
    return GaitTrajectory(
        phi=series["phi"],
        theta_s_deg=series["theta_s_deg"],
        theta_e_deg=series["theta_e_deg"],
        elbow_path=series["elbow"],
        tip_path=series["tip"],
        configurations=_Configurations(series["_solution"]),
        wrap_deviation_rad=series["wrap_deviation_rad"],
        max_step_rad=series["max_step_rad"],
        residual_max=np.max(series["residual"], axis=-1)[()],
    )
