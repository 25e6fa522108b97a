"""Mechanism definition types, validation and structural analysis.

A mechanism is a planar linkage chain: rigid links carrying named local
attachment points, ground pivots fixed in the body frame, revolute joints
pairing two attachment points, one driven (crank) joint, and optional gear
couplings that slave one joint angle to another.  ``validate_mechanism``
checks a LinkageSpec and compiles the structure the solver needs, with
every name the solver reads already resolved:

* the geometry array ``geom``: one slot per link-point and pivot
  coordinate, driver offset, gear ratio and offset and angle-output offset,
  shape (P,) for one design or (B, P) for a batch of B designs; a point
  is named by the slot of its x (its y follows),
* the spanning tree, grown from ground by one rule: add the first joint,
  driver first and then by id, that reaches exactly one unplaced link;
  every other joint closes one loop, and each loop's table maps its
  bodies to their two joints in cycle order, which the dyad plan and the
  four-bar constraint entries both read,
* the free joint angles: tree joints neither driven nor gear-slaved, as
  many as the closure equations (2 per loop),
* the analytic solve order, when the topology supports one (``steps``;
  its dyads are ``plan``), used for closed-form sweeps and for assembly
  margin reporting, and the Newton step order: the same walk with the
  free joint angles given and no dyads (``newton_steps``).  Each step is a
  record an executor runs without a lookup: a TreeStep, GearStep or
  DyadStep carrying its links, joint angles and geom slots, and its
  read-set, the geom slots its result depends on; ``tangent_steps`` are
  the analytic steps the angle outputs, margins and transmissions read,
* the closure gaps, the theta_s/theta_e angle outputs and the
  elbow/wingtip point outputs as (link, slot) reads,
* the design parameter map: named scalars bound to geometry slots,
* the fit's constraint vector (``constraints``): one ConstraintEntry per
  entry, in vector order, each with the closure, four-bar spans or
  symmetry slot it evaluates and its read-set.

Angles are radians internally and counterclockwise from the body +x axis;
the JSON document format keeps offsets in degrees (see io.py).  Lengths
are millimetres.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DanglingOutput,
    MissingDriver,
    NonPositiveLength,
    OpenChain,
    OverConstrained,
    SchemaError,
    UnknownParameter,
    ZeroRatio,
)

__all__ = [
    "Link",
    "GroundPivot",
    "Joint",
    "Driver",
    "GearCoupling",
    "AngleOutput",
    "ParameterBinding",
    "SymmetryConstraint",
    "LinkageSpec",
    "TreeStep",
    "GearStep",
    "DyadStep",
    "ConstraintEntry",
    "MechanismGraph",
    "validate_mechanism",
    "mirror_mechanism",
    "gear_couple",
    "fourbar_spec",
    "GROUND",
    "STAGES",
]

GROUND = "ground"
STAGES = ("humerus", "radius", "fixed")
BRANCHES = ("open", "crossed")


def gear_couple(theta_in: float, ratio: float, offset: float = 0.0) -> float:
    """Output angle of an ideal gear pair: ratio * theta_in + offset.

    All angles radians.  Negative ratios model external meshes (sense
    reversal); |ratio| < 1 is a reduction.  A zero ratio is rejected.
    """
    if ratio == 0.0:
        raise ZeroRatio("gear ratio must be nonzero")
    return ratio * theta_in + offset


@dataclass
class Link:
    id: str
    points: dict[str, np.ndarray]
    length: float | None = None

    def principal_length(self) -> float:
        """Largest pairwise distance between the link's points."""
        names = list(self.points)
        best = 0.0
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                d = float(np.hypot(*(self.points[a] - self.points[b])))
                best = max(best, d)
        return best


@dataclass
class GroundPivot:
    id: str
    x: float
    y: float


@dataclass
class Joint:
    """Revolute joint pairing attachment ``a`` to attachment ``b``.

    Attachments are (link_id, point_name) with the special link id
    ``ground`` naming a pivot.  The joint angle is the orientation of the
    b-side link minus the a-side link.
    """

    id: str
    a: tuple[str, str]
    b: tuple[str, str]

    def other(self, link_id: str) -> str:
        if self.a[0] == link_id:
            return self.b[0]
        return self.a[0]

    def attachment(self, link_id: str) -> str:
        if self.a[0] == link_id:
            return self.a[1]
        return self.b[1]


@dataclass
class Driver:
    joint: str
    sign: int = 1
    offset_deg: float = 0.0


@dataclass
class GearCoupling:
    id: str
    joint_in: str
    joint_out: str
    ratio: float
    offset_deg: float = 0.0


@dataclass
class AngleOutput:
    """Named angle output: sign * reference_angle + offset, degrees out.

    The reference is either a link orientation (absolute) or a joint angle
    (relative); exactly one of ``link``/``joint`` is set.
    """

    name: str
    link: str | None = None
    joint: str | None = None
    sign: int = 1
    offset_deg: float = 0.0


@dataclass
class ParameterBinding:
    """A named design scalar bound to one geometry field.

    Targets:
      pivot:<id>.<x|y>
      point:<link>.<point>.<x|y>
      driver.offset_deg
      gear:<id>.<ratio|offset_deg>
      output:<name>.offset_deg
    """

    name: str
    target: str
    min: float
    max: float
    stage: str


@dataclass
class SymmetryConstraint:
    """An equality the fitted design must honor: scalar at ``target`` equals
    ``value``.  Uses the same target grammar as ParameterBinding.  The
    fitting module enforces these (as paired inequalities in the public
    constraint vector); the solver itself does not."""

    name: str
    target: str
    value: float


@dataclass
class LinkageSpec:
    """Declarative mechanism description, as held in a mechanism file."""

    name: str = "mechanism"
    links: list[Link] = field(default_factory=list)
    ground_pivots: list[GroundPivot] = field(default_factory=list)
    joints: list[Joint] = field(default_factory=list)
    driver: Driver | None = None
    gear_couplings: list[GearCoupling] = field(default_factory=list)
    angle_outputs: list[AngleOutput] = field(default_factory=list)
    point_outputs: dict[str, tuple[str, str]] = field(default_factory=dict)
    branches: dict[str, str] = field(default_factory=dict)
    home_pose_deg: dict[str, float] = field(default_factory=dict)
    parameters: list[ParameterBinding] = field(default_factory=list)
    symmetry: list[SymmetryConstraint] = field(default_factory=list)
    description: str = ""


# Every step record carries its read-set, ``reads``: the geom slots its
# result depends on, sorted and closed over its inputs (the steps that
# placed the bodies and set the joint angles it reads, and the driver
# offset).  The free joint angles a Newton step may read are not slots.


@dataclass(frozen=True)
class TreeStep:
    """Place ``child`` from its placed ``parent`` through tree joint
    ``joint``: theta_child = theta_parent + sign * alpha, and the child's
    attachment lands on the parent's.  Points are geom slots of an x."""

    joint: str
    child: str
    parent: str
    sign: float  # +1 when the child is the joint's b side (alpha is b minus a)
    anchor: int  # the parent's attachment
    local: int  # the child's attachment
    reads: tuple[int, ...]


@dataclass(frozen=True)
class GearStep:
    """Set joint_out's angle to ratio * (joint_in's angle) + offset.  The
    input angle is read from ``links`` (its a-side and b-side link) when no
    earlier step set it, and ``links`` is None when one did."""

    id: str
    joint_in: str
    joint_out: str
    ratio: int  # geom slot of the ratio
    offset: int  # geom slot of offset_deg
    links: tuple[str, str] | None
    reads: tuple[int, ...]


@dataclass(frozen=True)
class DyadStep:
    """One closed-form construction: two links of unknown orientation
    between two known attachment positions, hinged at a shared joint.
    Points are geom slots of an x."""

    closure: str
    link1: str
    link2: str
    hinge: str
    p_ref: tuple[str, int]  # (placed body, point) whose world position anchors link1
    q_ref: tuple[str, int]  # (placed body, point) whose world position anchors link2
    a1: int  # link1 local point at its outer joint
    m1: int  # link1 local point at hinge
    m2: int  # link2 local point at hinge
    b2: int  # link2 local point at its outer joint
    sign: float  # circle intersection branch: +1 open, -1 crossed
    reads: tuple[int, ...]


@dataclass(frozen=True)
class ConstraintEntry:
    """One entry of a fit's constraint vector [inequalities, symmetry
    equalities], which fitting.py evaluates by ``kind``: 'margin' or
    'transmission' of the dyad closing ``closure``; 'assembled', a step
    function standing in for either when no dyad closes it; 'grashof' or
    'crank' of the four-bar loop whose ground, crank, coupler and rocker
    spans are the slot pairs ``spans``; or 'symmetry', geom[slot] = value.
    ``reads`` are the geom slots the value hangs on: the dyad's read-set,
    the points of the spans, the one slot, or none for a step function.
    """

    kind: str
    name: str
    closure: str | None = None
    spans: tuple[tuple[int, int], ...] = ()
    slot: int = -1
    value: float = math.nan
    reads: tuple[int, ...] = ()


class MechanismGraph:
    """A validated mechanism: its topology and its geometry array.

    Validation compiles the topology once: the tree and loops, the free
    joints, the analytic and Newton step records and the dyad plan, the
    closure gaps and outputs as (link, slot) reads, the parameter targets
    and the fit's constraint entries, all resolved to slots of ``geom``.
    Each step record carries its read-set, so a tangent pass skips a step
    no direction moves and a fit passes only the directions it can read,
    and ``tangent_steps`` lists the analytic steps a differentiated output
    reads.  ``geom`` is the one store of the numbers: the validated
    records keep NaN in their numeric fields.  Graphs made by ``copy()``,
    ``with_parameters()`` or ``DesignVector.apply()`` share the topology and
    own a private ``geom``.  Solves never mutate a graph.  The constructor
    takes ownership of ``spec``.
    """

    def __init__(self, spec: LinkageSpec):
        self._spec = spec
        self.geom: np.ndarray = np.empty(0)
        self._slots: dict[str, int] = {}  # target string -> geom column
        self._xy: dict[tuple, int] = {}  # (link or ground, point) -> column of x; y follows
        self._driver_slot = -1  # column of the driver's offset_deg
        self.joints: dict[str, Joint] = {}
        self.tree_parent: dict[str, tuple[str, str]] = {}  # link -> (joint, parent), root outward
        self.closures: list[str] = []
        self.loops: dict[str, dict[str, tuple[Joint, Joint]]] = {}  # closure -> body -> its 2 joints
        self.free_joints: list[str] = []
        self.steps: list[tuple] | None = None  # analytic solve order, (kind, record)
        self.plan: list[DyadStep] | None = None  # the dyads of steps
        self.tangent_steps: list[tuple] | None = None  # the steps sweep_tangents reads
        self.newton_steps: list[tuple] = []  # tree and gear steps, free angles given
        self.gaps: list[tuple] = []  # per closure, its a-side and b-side (link, slot)
        self._angle_outputs: dict[str, tuple] = {}  # theta_s/e -> (table, key, sign, offset slot)
        self._point_outputs: dict[str, tuple] = {}  # elbow/wingtip -> (link, slot)
        self.branch_of: dict[str, str] = {}
        self.home_pose: dict[str, float] = {}
        self.parameters: "OrderedDict[str, ParameterBinding]" = OrderedDict()
        self._targets: dict[str, int] = {}  # parameter name -> geom column
        self.constraints: tuple[ConstraintEntry, ...] = ()
        _build(self)

    @property
    def spec(self) -> LinkageSpec:
        """This design as a LinkageSpec, built on every read: a copy of the
        graph's records (see _copy_spec) with its geometry read from ``geom``."""
        if self.geom.ndim != 1:
            raise ValueError("a batch of designs has no single spec")
        out = _copy_spec(self._spec)
        for (_, container, key, _), value in zip(_fields(out), self.geom.tolist()):
            container[key] = value
        return out

    # -- parameter map ----------------------------------------------------

    def parameter_names(self) -> list[str]:
        return list(self.parameters)

    def parameter_values(self) -> "OrderedDict[str, float]":
        return OrderedDict((n, self.get_parameter(n)) for n in self.parameters)

    def get_parameter(self, name: str) -> float:
        """The named parameter's value in a one-design graph."""
        return float(self.geom[..., self._target(name)])

    def set_parameter(self, name: str, value) -> None:
        self.geom[..., self._target(name)] = value

    def with_parameters(self, values: dict) -> "MechanismGraph":
        """A copy with the named parameters set, in one indexed write.

        The values are floats, or (B,) arrays of one length B: those put B
        designs on the copy's leading batch axis, design b taking entry b of
        every array, and the source's geometry broadcasts along that axis.
        """
        slots = [self._target(name) for name in values]
        columns = np.array(list(values.values()), dtype=float)  # (names,) + batch
        batch = np.broadcast_shapes(self.geom.shape[:-1], columns.shape[1:])
        out = self.copy()
        out.geom = np.array(np.broadcast_to(self.geom, batch + self.geom.shape[-1:]))
        out.geom[..., slots] = np.moveaxis(columns, 0, -1)
        return out

    def _target(self, name: str) -> int:
        """The geom column the named parameter is bound to."""
        try:
            return self._targets[name]
        except KeyError:
            raise UnknownParameter(f"no design parameter named {name!r}") from None

    def copy(self) -> "MechanismGraph":
        """An independent graph: shared topology, private geometry."""
        out = object.__new__(MechanismGraph)
        out.__dict__.update(self.__dict__)
        out.geom = self.geom.copy()
        return out

    def summary(self) -> dict:
        """Counts used by the validate CLI and by tests."""
        stages = {"humerus": 0, "radius": 0, "fixed": 0}
        for b in self.parameters.values():
            stages[b.stage] += 1
        return {
            "name": self._spec.name,
            "links": len(self.links),
            "ground_pivots": len(self.pivots),
            "joints": len(self.joints),
            "loops": len(self.closures),
            "free_unknowns": len(self.free_joints),
            "gear_couplings": len(self._spec.gear_couplings),
            "parameters": len(self.parameters),
            "free_parameters": stages["humerus"] + stages["radius"],
            "humerus_parameters": stages["humerus"],
            "radius_parameters": stages["radius"],
            "fixed_parameters": stages["fixed"],
            "symmetry": len(self._spec.symmetry),
            "analytic_plan": self.plan is not None,
        }


def validate_mechanism(spec: LinkageSpec) -> MechanismGraph:
    """Validate a LinkageSpec and derive its solve structure, once.

    The structure is topology only: the tree and loops, the free joints,
    the analytic solve order (None when some loop needs Newton), the Newton
    step order, the closure gaps and outputs, and the constraint entries,
    compiled to geom slots.  Geometry changes never alter it.

    Raises SchemaError for malformed references, MissingDriver, OpenChain,
    OverConstrained, NonPositiveLength, DanglingOutput or ZeroRatio as the
    corresponding defect is found.  The argument is not retained; the
    returned graph owns a copy that shares no mutable object with it (see
    _copy_spec), and graphs derived from it share its topology and never
    validate again.
    """
    return MechanismGraph(_copy_spec(spec))


def _copy_spec(spec: LinkageSpec) -> LinkageSpec:
    """A copy of ``spec`` that shares no mutable object with it: a shallow
    copy of every record, new lists and dicts for its containers, and for
    each link a new point dict of copied float points.  What the records
    still share are strings, numbers and tuples of strings."""
    records = ("ground_pivots", "joints", "gear_couplings", "angle_outputs",
               "parameters", "symmetry")
    return replace(
        spec,
        links=[replace(link, points={name: np.array(xy, dtype=float)
                                     for name, xy in link.points.items()})
               for link in spec.links],
        driver=None if spec.driver is None else replace(spec.driver),
        point_outputs=dict(spec.point_outputs),
        branches=dict(spec.branches),
        home_pose_deg=dict(spec.home_pose_deg),
        **{kind: [replace(r) for r in getattr(spec, kind)] for kind in records},
    )


# ---------------------------------------------------------------------------
# construction internals


def _build(g: MechanismGraph) -> None:
    spec = g._spec
    for kind in ("links", "ground_pivots", "joints", "gear_couplings"):
        seen: set[str] = set()
        for record in getattr(spec, kind):
            if record.id in seen:
                raise SchemaError(f"{kind}[{record.id}]", "duplicate id")
            seen.add(record.id)
    for link in spec.links:
        if link.id == GROUND:
            raise SchemaError(f"links[{link.id}]", "link id 'ground' is reserved")
        link.points = {k: np.asarray(v, dtype=float) for k, v in link.points.items()}
    g.links: dict[str, Link] = {link.id: link for link in spec.links}
    g.pivots: dict[str, GroundPivot] = {p.id: p for p in spec.ground_pivots}
    if spec.driver is None:
        raise MissingDriver("mechanism declares no driver joint")
    fields = list(_fields(spec))
    g._slots = {target: i for i, (target, *_) in enumerate(fields)}
    if len(g._slots) != len(fields):
        raise SchemaError("links", "two geometry fields share one target name")
    g.geom = np.array([container[key] for _, container, key, _ in fields], dtype=float)
    for link in spec.links:
        g._xy.update({(link.id, p): g._slots[f"point:{link.id}.{p}.x"] for p in link.points})
    g._xy.update({(GROUND, p.id): g._slots[f"pivot:{p.id}.x"] for p in spec.ground_pivots})
    g._driver_slot = g._slots["driver.offset_deg"]
    g.joints = {joint.id: joint for joint in spec.joints}
    for joint in spec.joints:
        for end, (link_id, point) in (("a", joint.a), ("b", joint.b)):
            if (link_id, point) not in g._xy:
                where = f"joints[{joint.id}].{end}"
                raise SchemaError(where, f"unknown point {link_id}:{point}")
        if joint.a[0] == joint.b[0]:
            raise SchemaError(
                f"joints[{joint.id}]", "both attachments on the same link"
            )

    for link in g.links.values():
        if link.length is not None and not link.length > 0.0:
            raise SchemaError(f"links[{link.id}].length", "length must be > 0")
        if not link.principal_length() > 0.0:
            raise NonPositiveLength(
                f"link {link.id!r} has zero extent (all points coincide)"
            )

    if spec.driver.joint not in g.joints:
        raise SchemaError("driver.joint", f"unknown joint {spec.driver.joint!r}")
    if spec.driver.sign not in (1, -1):
        raise SchemaError("driver.sign", "sign must be +1 or -1")

    slaved: set[str] = set()
    for coupling in spec.gear_couplings:
        if coupling.ratio == 0.0:
            raise ZeroRatio(f"gear coupling {coupling.id!r} has zero ratio")
        for fieldname, jid in (
            ("joint_in", coupling.joint_in),
            ("joint_out", coupling.joint_out),
        ):
            if jid not in g.joints:
                raise SchemaError(
                    f"gear_couplings[{coupling.id}].{fieldname}",
                    f"unknown joint {jid!r}",
                )
        if coupling.joint_in == coupling.joint_out:
            raise SchemaError(
                f"gear_couplings[{coupling.id}]", "joint_in equals joint_out"
            )
        if coupling.joint_out == spec.driver.joint:
            raise SchemaError(
                f"gear_couplings[{coupling.id}].joint_out",
                "cannot slave the driver joint",
            )
        if coupling.joint_out in slaved:
            raise SchemaError(
                f"gear_couplings[{coupling.id}].joint_out",
                f"joint {coupling.joint_out!r} slaved twice",
            )
        slaved.add(coupling.joint_out)

    _spanning_tree(g)
    _classify_joints(g)
    g.newton_steps = _derive_plan(g, newton=True)
    _check_balance(g)
    _branches_and_home(g)
    _outputs(g)
    _parameter_map(g)
    g.steps = _derive_plan(g, newton=False)
    if g.steps is not None:
        g.plan = [step for kind, step in g.steps if kind == "dyad"]
        g.tangent_steps = _tangent_steps(g)
    _constraints(g)
    for _, container, key, _ in fields:  # geom is the one store from here on
        container[key] = math.nan


def _fields(spec: LinkageSpec):
    """Every geometry scalar of ``spec`` in slot order, as (target string,
    container, key, negated by mirroring); a point's x and y take adjacent
    slots.  The target strings are the grammar of ParameterBinding."""
    for link in spec.links:
        for name, xy in link.points.items():
            yield f"point:{link.id}.{name}.x", xy, 0, True
            yield f"point:{link.id}.{name}.y", xy, 1, False
    for pivot in spec.ground_pivots:
        yield f"pivot:{pivot.id}.x", vars(pivot), "x", True
        yield f"pivot:{pivot.id}.y", vars(pivot), "y", False
    yield "driver.offset_deg", vars(spec.driver), "offset_deg", True
    for coupling in spec.gear_couplings:
        yield f"gear:{coupling.id}.ratio", vars(coupling), "ratio", False
        yield f"gear:{coupling.id}.offset_deg", vars(coupling), "offset_deg", True
    for out in spec.angle_outputs:
        yield f"output:{out.name}.offset_deg", vars(out), "offset_deg", False


def _spanning_tree(g: MechanismGraph) -> None:
    """Grow the tree from ground by one rule: add the first joint, driver
    first and then by id, that reaches exactly one unplaced link, until
    none does.  ``tree_parent`` records the links in that order, root
    outward.  Every other joint closes a loop; closures are sorted."""
    driver_joint = g._spec.driver.joint
    ranked = sorted(g.joints.values(), key=lambda joint: (joint.id != driver_joint, joint.id))
    placed = {GROUND}

    def next_joint() -> Joint | None:
        return next((j for j in ranked if len({j.a[0], j.b[0]} - placed) == 1), None)

    for joint in iter(next_joint, None):
        child = joint.b[0] if joint.a[0] in placed else joint.a[0]
        g.tree_parent[child] = (joint.id, joint.other(child))
        placed.add(child)
    unreachable = set(g.links) - placed
    if unreachable:
        names = ", ".join(sorted(unreachable))
        raise OpenChain(f"links not connected to ground: {names}")
    g.closures = sorted(g.joints.keys() - {jid for jid, _ in g.tree_parent.values()})
    for cid in g.closures:
        g.loops[cid] = _loop(g, cid)
        joint = g.joints[cid]
        g.gaps.append((_read(g, *joint.a), _read(g, *joint.b)))


def _read(g: MechanismGraph, link_id: str, point: str) -> tuple[str, int]:
    """A point as the solver reads it: (its link or ground, slot of its x)."""
    return link_id, g._xy[link_id, point]


def _loop(g: MechanismGraph, closure_id: str) -> dict[str, tuple[Joint, Joint]]:
    """Each body of the loop closed by ``closure_id`` -> its two joints, in
    cycle order: the closure, then the tree path from its a side up to the
    common ancestor and down to its b side."""
    def path_to_root(link: str) -> list[str]:
        out = []
        while link != GROUND:
            jid, link = g.tree_parent[link]
            out.append(jid)
        return out

    joint = g.joints[closure_id]
    pa, pb = path_to_root(joint.a[0]), path_to_root(joint.b[0])
    cycle = [closure_id] + [j for j in pa if j not in pb] + [j for j in pb[::-1] if j not in pa]
    ends: dict[str, list[Joint]] = {}
    for jid in cycle:
        joint = g.joints[jid]
        for body in (joint.a[0], joint.b[0]):
            ends.setdefault(body, []).append(joint)
    return {body: tuple(pair) for body, pair in ends.items()}


def _classify_joints(g: MechanismGraph) -> None:
    """The free joints: tree joints neither driven nor gear-slaved."""
    driver_joint = g._spec.driver.joint
    if driver_joint in g.closures:
        raise SchemaError(
            "driver.joint", "driver joint closes a loop; drive a tree joint instead"
        )
    tree = [jid for jid, _ in g.tree_parent.values()]  # root outward
    slaved = {c.joint_out for c in g._spec.gear_couplings}
    for coupling in g._spec.gear_couplings:
        if coupling.joint_out not in tree:
            raise SchemaError(
                f"gear_couplings[{coupling.id}].joint_out",
                "slaved joint must be a tree joint (its angle is eliminated)",
            )
    g.free_joints = [jid for jid in tree if jid != driver_joint and jid not in slaved]


def _check_balance(g: MechanismGraph) -> None:
    unknowns = len(g.free_joints)
    equations = 2 * len(g.closures)
    if unknowns > equations:
        raise OpenChain(
            f"{unknowns} free joint angles but only {equations} loop equations; "
            "a driven chain is not closed"
        )
    if unknowns < equations:
        raise OverConstrained(
            f"{equations} loop equations but only {unknowns} free joint angles"
        )


def _branches_and_home(g: MechanismGraph) -> None:
    for jid, flag in g._spec.branches.items():
        if jid not in g.joints:
            raise SchemaError(f"branches[{jid}]", "unknown joint")
        if jid not in g.closures:
            raise SchemaError(
                f"branches[{jid}]", "branch flags apply to loop-closing joints only"
            )
        if flag not in BRANCHES:
            raise SchemaError(f"branches[{jid}]", f"branch must be one of {BRANCHES}")
    # Loops without an explicit flag assemble on the open branch.
    g.branch_of = {cid: g._spec.branches.get(cid, "open") for cid in g.closures}
    for jid, angle in g._spec.home_pose_deg.items():
        if jid not in g.joints:
            raise SchemaError(f"home_pose_deg[{jid}]", "unknown joint")
        g.home_pose[jid] = math.radians(float(angle))


def _outputs(g: MechanismGraph) -> None:
    """Check every output; compile theta_s/theta_e to (table, key, sign,
    offset slot), read as sign * degrees(table[key]) + offset, and
    elbow/wingtip to (link, slot)."""
    angles = {}
    for out in g._spec.angle_outputs:
        if (out.link is None) == (out.joint is None):
            raise SchemaError(
                f"outputs.angles.{out.name}",
                "exactly one of link/joint must be given",
            )
        if out.link is not None and out.link not in g.links:
            raise DanglingOutput(
                f"angle output {out.name!r} references missing link {out.link!r}"
            )
        if out.joint is not None and out.joint not in g.joints:
            raise DanglingOutput(
                f"angle output {out.name!r} references missing joint {out.joint!r}"
            )
        if out.sign not in (1, -1):
            raise SchemaError(f"outputs.angles.{out.name}.sign", "sign must be +1/-1")
        angles[out.name] = out
    for required in ("theta_s", "theta_e"):
        out = angles.get(required)
        if out is None:
            raise SchemaError(f"outputs.angles.{required}", "angle output missing")
        table, key = ("theta", out.link) if out.link is not None else ("alpha", out.joint)
        g._angle_outputs[required] = (
            table, key, out.sign, g._slots[f"output:{required}.offset_deg"]
        )
    for name, (link_id, point) in g._spec.point_outputs.items():
        if (link_id, point) not in g._xy:
            raise DanglingOutput(
                f"point output {name!r} references missing point {link_id}:{point}"
            )
    for required in ("elbow", "wingtip"):
        if required not in g._spec.point_outputs:
            raise SchemaError(f"outputs.points.{required}", "point output missing")
        g._point_outputs[required] = _read(g, *g._spec.point_outputs[required])


def _parameter_map(g: MechanismGraph) -> None:
    for binding in g._spec.parameters:
        where = f"parameters[{binding.name}]"
        if binding.name in g.parameters:
            raise SchemaError(where, "duplicate name")
        if binding.stage not in STAGES:
            raise SchemaError(f"{where}.stage", f"stage must be one of {STAGES}")
        slot = _resolve_target(g, binding.target, f"{where}.target")
        value = float(g.geom[slot])
        if not binding.min <= value <= binding.max:
            raise SchemaError(
                where,
                f"value {value!r} outside bounds [{binding.min}, {binding.max}]",
            )
        g.parameters[binding.name] = binding
        g._targets[binding.name] = slot


def _resolve_target(g: MechanismGraph, target: str, where: str) -> int:
    """The geom column of a target string; SchemaError when it names none."""
    try:
        return g._slots[target]
    except KeyError:
        raise SchemaError(where, f"unresolvable target {target!r}") from None


# ---------------------------------------------------------------------------
# solve orders: the analytic and Newton step records


def _derive_plan(g: MechanismGraph, newton: bool) -> list[tuple] | None:
    """The analytic solve order from the driver angle, or None when some
    loop has no closed form; with ``newton``, the order from the driver
    and free angles, by tree and gear steps alone.

    Walks the placements the solver will execute: a tree step places a
    link once its parent is placed and its joint angle is known (given, or
    gear-slaved); a gear step sets its output angle once its input angle
    is known or both links of its input joint are placed (gears are tried
    in id order).  A dyad is planned only when no tree or gear step is
    ready, so a gear-slaved link is never taken as a dyad unknown.  Steps
    are ("tree", TreeStep), ("gear", GearStep) and ("dyad", DyadStep),
    each with its read-set.  Given the free angles, only a gear coupling
    cycle can leave a link unplaced; it raises SchemaError naming the
    couplings it holds back.
    """
    # The read-sets of the placed bodies and of the known joint angles.
    placed: dict[str, frozenset] = {GROUND: frozenset()}
    known = {g._spec.driver.joint: frozenset({g._driver_slot})}
    if newton:
        known.update(dict.fromkeys(g.free_joints, frozenset()))
    gears = sorted(g._spec.gear_couplings, key=lambda c: c.id)
    loops = [] if newton else list(g.closures)

    def next_step() -> tuple | None:
        for child, (jid, parent) in g.tree_parent.items():
            if child not in placed and jid in known and parent in placed:
                joint = g.joints[jid]
                # The joint angle convention is b minus a; flip when the
                # tree child happens to sit on the a side.
                sign = 1.0 if joint.b[0] == child else -1.0
                anchor = g._xy[parent, joint.attachment(parent)]
                local = g._xy[child, joint.attachment(child)]
                reads = placed[parent] | known[jid] | _points(anchor, local)
                placed[child] = reads
                return "tree", TreeStep(jid, child, parent, sign, anchor, local, tuple(sorted(reads)))
        for coupling in gears:
            joint = g.joints[coupling.joint_in]
            links = (joint.a[0], joint.b[0])
            if coupling.joint_in in known or set(links) <= placed.keys():
                gears.remove(coupling)
                ratio = g._slots[f"gear:{coupling.id}.ratio"]
                offset = g._slots[f"gear:{coupling.id}.offset_deg"]
                if coupling.joint_in in known:
                    reads, links = known[coupling.joint_in], None
                else:
                    reads = placed[links[0]] | placed[links[1]]
                reads = reads | {ratio, offset}
                known[coupling.joint_out] = reads
                return "gear", GearStep(coupling.id, coupling.joint_in, coupling.joint_out,
                                        ratio, offset, links, tuple(sorted(reads)))
        for cid in loops:
            step = _plan_dyad(g, cid, placed)
            if step is not None:
                loops.remove(cid)
                placed[step.link1] = placed[step.link2] = frozenset(step.reads)
                return "dyad", step
        return None

    steps = list(iter(next_step, None))
    if newton and gears:
        names = ", ".join(c.id for c in gears)
        raise SchemaError("gear_couplings", f"cyclic gear coupling dependency: {names}")
    return steps if placed.keys() >= g.links.keys() else None


def _points(*slots: int) -> frozenset:
    """The geom slots of the points whose x sits at ``slots``: x and y."""
    return frozenset(slots) | {slot + 1 for slot in slots}


def _plan_dyad(g: MechanismGraph, cid: str, placed: dict) -> DyadStep | None:
    """The dyad closing loop ``cid``, read from its loop table: its two
    unplaced links, the hinge they share and, for each, its other joint to
    a placed body.  None unless exactly two links are unplaced, they share
    a joint and both outer bodies are placed (two links joined twice have
    no placed outer body).  ``placed`` maps each placed body to its
    read-set."""
    loop = g.loops[cid]
    unplaced = [body for body in loop if body not in placed]
    if len(unplaced) != 2:
        return None
    l1, l2 = unplaced
    hinge = next((joint for joint in loop[l1] if joint in loop[l2]), None)
    if hinge is None:
        return None
    o1, o2 = (next(joint for joint in loop[link] if joint is not hinge) for link in (l1, l2))
    p_body, q_body = o1.other(l1), o2.other(l2)
    if p_body not in placed or q_body not in placed:
        return None
    p_ref = _read(g, p_body, o1.attachment(p_body))
    q_ref = _read(g, q_body, o2.attachment(q_body))
    a1 = g._xy[l1, o1.attachment(l1)]
    m1 = g._xy[l1, hinge.attachment(l1)]
    m2 = g._xy[l2, hinge.attachment(l2)]
    b2 = g._xy[l2, o2.attachment(l2)]
    reads = placed[p_body] | placed[q_body] | _points(p_ref[1], q_ref[1], a1, m1, m2, b2)
    return DyadStep(
        closure=cid,
        link1=l1,
        link2=l2,
        hinge=hinge.id,
        p_ref=p_ref,
        q_ref=q_ref,
        a1=a1,
        m1=m1,
        m2=m2,
        b2=b2,
        sign=1.0 if g.branch_of[cid] == "open" else -1.0,
        reads=tuple(sorted(reads)),
    )


def _tangent_steps(g: MechanismGraph) -> list[tuple]:
    """The steps of ``g.steps`` that the angle outputs, the margins and the
    transmissions read: every dyad, and what the outputs and dyads need,
    found by walking the steps backwards from what they read."""
    driver = g._spec.driver.joint
    gear_out = {c.joint_out for c in g._spec.gear_couplings}
    need: set[tuple[str, str]] = set()
    for table, key, *_ in g._angle_outputs.values():
        if table == "theta":
            need.add(("theta", key))
        elif key in gear_out:
            need.add(("alpha", key))
        elif key != driver:  # read as its b-side minus its a-side orientation
            joint = g.joints[key]
            need.update({("theta", joint.a[0]), ("theta", joint.b[0])})
    live = []
    for kind, step in reversed(g.steps):
        if kind == "dyad":
            need.update({("theta", step.p_ref[0]), ("theta", step.q_ref[0])})
        elif kind == "tree" and ("theta", step.child) in need:
            need.update({("theta", step.parent), ("alpha", step.joint)})
        elif kind == "gear" and ("alpha", step.joint_out) in need:
            if step.links is None:
                need.add(("alpha", step.joint_in))
            else:
                need.update(("theta", link) for link in step.links)
        else:
            continue
        live.append((kind, step))
    return live[::-1]


def _constraints(g: MechanismGraph) -> None:
    """Compile ``g.constraints``: an assembly margin per closure, the
    four-bar entries, a transmission floor per closure, then the symmetry
    equalities."""
    dyads = {step.closure: step.reads for step in g.plan or ()}

    def per_closure(kind: str, label: str) -> list[ConstraintEntry]:
        return [ConstraintEntry(kind if cid in dyads else "assembled", f"{label}[{cid}]",
                                cid, reads=dyads.get(cid, ()))
                for cid in g.closures]

    symmetry = {}
    for sym in g._spec.symmetry:
        where = f"symmetry[{sym.name}]"
        if where in symmetry:
            raise SchemaError(where, "duplicate name")
        slot = _resolve_target(g, sym.target, f"{where}.target")
        symmetry[where] = ConstraintEntry("symmetry", where, slot=slot, value=sym.value,
                                          reads=(slot,))
    g.constraints = (*per_closure("margin", "assembly_margin"), *_fourbar_entries(g),
                     *per_closure("transmission", "transmission_floor"), *symmetry.values())


def _fourbar_entries(g: MechanismGraph):
    """The Grashof and crank entries of each loop that is a plain four-bar
    driven at a ground joint.

    A qualifying loop has four joints, exactly two of them on ground, and
    three moving links each spanning two of the loop's joints.  Its crank
    is the side link whose ground joint is driven or gear-slaved.  Its
    spans are the slot pairs of the ground, crank, coupler and rocker
    attachments; their distances are the equivalent four-bar lengths.
    """
    driven = {g._spec.driver.joint, *(c.joint_out for c in g._spec.gear_couplings)}
    for cid in g.closures:
        ends = g.loops[cid]
        if len(ends) != 4 or GROUND not in ends:
            continue
        cranks = [j for j in ends[GROUND] if j.id in driven]
        if not cranks:
            continue
        crank = cranks[-1].other(GROUND)
        rocker = next(j.other(GROUND) for j in ends[GROUND] if j is not cranks[-1])
        coupler = next(body for body in ends if body not in (GROUND, crank, rocker))
        spans = tuple(tuple(g._xy[body, joint.attachment(body)] for joint in ends[body])
                      for body in (GROUND, crank, coupler, rocker))
        reads = tuple(sorted(_points(*(slot for pair in spans for slot in pair))))
        yield ConstraintEntry("grashof", f"grashof_margin[{cid}]", cid, spans, reads=reads)
        yield ConstraintEntry("crank", f"crank_shortest[{cid}]", cid, spans, reads=reads)


# ---------------------------------------------------------------------------
# mirroring


def mirror_mechanism(mech: MechanismGraph) -> MechanismGraph:
    """Reflect a mechanism across the body y axis.

    Ground pivots and link-local geometry negate their x coordinates, the
    driver and gear phase offsets negate (the crank spins the other way),
    angle output signs negate so reported angles keep their meaning, and
    every loop's assembly branch flips handedness.  Applying the operation
    twice restores the original mechanism exactly: all transforms are
    sign flips.  Parameter bounds on negated fields swap and negate so the
    bound semantics survive the reflection.
    """
    spec = mech.spec  # built on this read, so it is the mirror's own
    marker = " (mirrored)"
    if spec.name.endswith(marker):
        spec.name = spec.name[: -len(marker)]
    else:
        spec.name = spec.name + marker
    negated = set()
    for target, container, key, negates in _fields(spec):
        if negates:
            container[key] = -container[key]
            negated.add(target)
    spec.driver.sign = -spec.driver.sign
    for out in spec.angle_outputs:
        out.sign = -out.sign
    spec.branches = {
        jid: ("crossed" if flag == "open" else "open")
        for jid, flag in spec.branches.items()
    }
    spec.home_pose_deg = {jid: -a for jid, a in spec.home_pose_deg.items()}
    for binding in spec.parameters:
        if binding.target in negated:
            binding.min, binding.max = -binding.max, -binding.min
    for sym in spec.symmetry:
        if sym.target in negated:
            sym.value = -sym.value
    return MechanismGraph(spec)


# ---------------------------------------------------------------------------
# programmatic four-bar construction


def fourbar_spec(
    ground: float,
    crank: float,
    coupler: float,
    rocker: float,
    branch: str = "open",
    name: str = "fourbar",
) -> LinkageSpec:
    """Build a plain four-bar LinkageSpec in canonical placement.

    Crank pivot A at the origin, rocker pivot D at (ground, 0); the rocker
    orientation is exposed as theta_s and the coupler orientation as
    theta_e.  The four design parameters are the ground span and the three
    moving link lengths.
    """
    def within(value):
        return max(0.05 * value, value - 0.5 * abs(value)), value + 0.5 * abs(value)

    spec = LinkageSpec(
        name=name,
        links=[
            Link("crank", {"root": np.array([0.0, 0.0]), "tip": np.array([crank, 0.0])}),
            Link(
                "coupler",
                {"near": np.array([0.0, 0.0]), "far": np.array([coupler, 0.0])},
            ),
            Link(
                "rocker", {"root": np.array([0.0, 0.0]), "pin": np.array([rocker, 0.0])}
            ),
        ],
        ground_pivots=[GroundPivot("A", 0.0, 0.0), GroundPivot("D", ground, 0.0)],
        joints=[
            Joint("j_drive", ("ground", "A"), ("crank", "root")),
            Joint("j_knee", ("crank", "tip"), ("coupler", "near")),
            Joint("j_root", ("ground", "D"), ("rocker", "root")),
            Joint("j_wrist", ("coupler", "far"), ("rocker", "pin")),
        ],
        driver=Driver(joint="j_drive", sign=1, offset_deg=0.0),
        angle_outputs=[
            AngleOutput("theta_s", link="rocker", sign=1, offset_deg=0.0),
            AngleOutput("theta_e", link="coupler", sign=1, offset_deg=0.0),
        ],
        point_outputs={"elbow": ("crank", "tip"), "wingtip": ("rocker", "pin")},
        branches={"j_wrist": branch},
        parameters=[
            ParameterBinding("ground_span", "pivot:D.x", *within(ground), "fixed"),
            ParameterBinding("crank_len", "point:crank.tip.x", *within(crank), "humerus"),
            ParameterBinding(
                "coupler_len", "point:coupler.far.x", *within(coupler), "humerus"
            ),
            ParameterBinding(
                "rocker_len", "point:rocker.pin.x", *within(rocker), "humerus"
            ),
        ],
        description="canonical four-bar: crank pivot at origin, rocker pivot on +x",
    )
    return spec
