"""Randomized invariants: parameter application on the shipped designs, one
design at a time and in batches, batched sensitivity ranking against a
one-design-at-a-time scorer, byte round trips of mechanism and trajectory
files, the bytes of trajectory CSV and SVG polylines against per-value
reference formulas, rigid bodies and closed joints in every swept pose, the
solve routes and mirror symmetry of random Grashof four-bars, the Newton
Jacobian against central differences of the forward pass, the compiled
read-sets against the outputs they claim to bound, sweep entries read on
demand against every entry read in key order, and a stage fit's trial sweeps,
which start from its frozen steps, against plain sweeps."""

from __future__ import annotations

import functools
import json
import math
import re
import tempfile
import types
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from armwing import (
    FitOptions,
    PlotSpec,
    Series,
    constraint_names,
    evaluate_constraints,
    fourbar_spec,
    mirror_mechanism,
    parse_mechanism_file,
    parse_mechanism_text,
    read_trajectory_csv,
    render_svg,
    sample_targets,
    sensitivity_rank,
    sweep_gait,
    sweep_series,
    trajectory_csv_text,
    validate_mechanism,
)
from armwing.fitting import _constraint_core, _StageProblem
from armwing.io import TRAJECTORY_COLUMNS, _csv_text, mechanism_to_dict
from armwing.errors import NotAssemblable, SingularConfiguration
from armwing.fourbar import COLLINEAR_TOL_RAD
from armwing.solver import NEWTON_TOL_MM, _closure_jacobian, _forward, sweep_tangents, wrap_pi
from armwing.svgplot import _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _data_range

from conftest import DEMO_PATH, REFERENCE_PATH
from test_solver import _geared_fivebar, _triad_sixbar


@functools.lru_cache(maxsize=None)
def _shipped(path):
    return validate_mechanism(parse_mechanism_file(path))


def _write_target(doc: dict, target: str, value: float) -> None:
    """Write one value into a mechanism document by its target string."""
    head, _, rest = target.partition(":")
    if head == "driver.offset_deg":
        doc["driver"]["offset_deg"] = value
        return
    ref, field = rest.rsplit(".", 1)
    if head == "pivot":
        next(p for p in doc["ground_pivots"] if p["id"] == ref)[field] = value
    elif head == "point":
        link, point = ref.split(".", 1)
        xy = next(item for item in doc["links"] if item["id"] == link)["points"][point]
        xy["xy".index(field)] = value
    elif head == "gear":
        next(g for g in doc["gear_couplings"] if g["id"] == ref)[field] = value
    else:
        doc["outputs"]["angles"][ref][field] = value


def _same_bits(a, b) -> bool:
    """Equal keys and, entry by entry, equal shapes, dtypes and bytes; any
    Mapping (a sweep_series result is not a dict) compares by its entries."""
    if isinstance(a, Mapping) or isinstance(b, Mapping):
        return (isinstance(a, Mapping) and isinstance(b, Mapping) and a.keys() == b.keys()
                and all(_same_bits(a[k], b[k]) for k in a))
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _row(series: Mapping, b: int) -> dict:
    """Design b's sweep out of a batched sweep_series result."""
    return {
        key: value if key == "phi" else _row(value, b) if isinstance(value, Mapping) else value[b]
        for key, value in series.items()
        if key != "_solution"
    }


@pytest.mark.parametrize("path", [REFERENCE_PATH, DEMO_PATH], ids=lambda p: p.stem)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data(), samples=st.sampled_from([8, 36]), batch=st.sampled_from([1, 2, 5]))
def test_with_parameters_matches_a_fresh_validation(path, data, samples, batch):
    mech = _shipped(path)
    before = mechanism_to_dict(mech.spec)
    designs = []
    for _ in range(batch):
        values = {}
        for name, binding in mech.parameters.items():
            u = data.draw(st.floats(0.0, 1.0), label=name)
            value = binding.min + u * (binding.max - binding.min)
            values[name] = min(max(value, binding.min), binding.max)
        designs.append(values)
    # All designs applied as one batch and swept in one pass.
    columns = {name: np.array([values[name] for values in designs]) for name in mech.parameters}
    batched = sweep_series(mech.with_parameters(columns), samples, strict=False)

    for b, values in enumerate(designs):
        applied = mech.with_parameters(values)
        doc = mechanism_to_dict(mech.spec)
        for name, value in values.items():
            _write_target(doc, mech.parameters[name].target, value)
        fresh = validate_mechanism(parse_mechanism_text(json.dumps(doc)))

        got = sweep_series(applied, samples, strict=False)
        want = sweep_series(fresh, samples, strict=False)
        del got["_solution"], want["_solution"]
        assert _same_bits(got, want)
        assert _same_bits(_row(batched, b), got)
        assert _same_bits(
            evaluate_constraints(applied, samples=samples),
            evaluate_constraints(fresh, samples=samples),
        )
    assert mechanism_to_dict(mech.spec) == before


def test_same_bits_tells_two_designs_apart():
    """_same_bits compares the entries of a sweep mapping, not its key names:
    sweeps of two designs differ, and a sweep equals its repeat."""
    mech = _shipped(REFERENCE_PATH)
    nudged = mech.with_parameters({"crank_len": mech.get_parameter("crank_len") * 1.01})
    a, again, b = (sweep_series(m, 36, strict=False) for m in (mech, mech, nudged))
    for series in (a, again, b):
        del series["_solution"]
    assert _same_bits(a, again) and _same_bits(a, dict(a))
    assert not _same_bits(a, b)
    assert not _same_bits(a, {**a, "max_step_rad": a["max_step_rad"] + 1.0})


@st.composite
def perturbed_designs(draw, path=REFERENCE_PATH):
    """A shipped design with each free parameter that no symmetry entry pins
    scaled by a factor in [0.98, 1.02] and clipped to its bounds, as the
    benchmark's design generator draws them (without its feasibility
    filter)."""
    mech = _shipped(path)
    pinned = {sym.target for sym in mech.spec.symmetry}
    values = {}
    for name, binding in mech.parameters.items():
        if binding.stage in ("humerus", "radius") and binding.target not in pinned:
            factor = draw(st.floats(0.98, 1.02), label=name)
            value = mech.get_parameter(name) * factor
            values[name] = min(max(value, binding.min), binding.max)
    return mech.with_parameters(values)


def _rank_one_design_at_a_time(mech, delta: float, samples: int) -> list:
    """sensitivity_rank's result from one apply and one sweep per scaled design."""
    lo, hi = 1.0 - delta, 1.0 + delta
    scored = []
    for name in mech.parameter_names():
        (ok_lo, tip_lo), (ok_hi, tip_hi) = (
            (series["ok"], series["tip"])
            for series in (
                sweep_series(
                    mech.with_parameters({name: mech.get_parameter(name) * scale}),
                    samples,
                    strict=False,
                )
                for scale in (lo, hi)
            )
        )
        both = ok_lo & ok_hi
        if not np.any(both):
            scored.append((name, float("inf")))
            continue
        gap = np.linalg.norm(tip_hi[both] - tip_lo[both], axis=-1)
        scored.append((name, float(np.max(gap) / (100.0 * (hi - lo)))))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


@pytest.mark.parametrize("path", [REFERENCE_PATH, DEMO_PATH], ids=lambda p: p.stem)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    samples=st.sampled_from([360, 1000]),
    delta=st.sampled_from([0.025, 0.1]),
)
def test_sensitivity_rank_matches_one_design_at_a_time(path, data, samples, delta):
    mech = data.draw(perturbed_designs(path), label="design")
    got = sensitivity_rank(mech, delta=delta, samples=samples)
    want = _rank_one_design_at_a_time(mech, delta, samples)
    assert [(n, float(s).hex()) for n, s in got] == [(n, float(s).hex()) for n, s in want]


def _designs_and_mirrors(path):
    """perturbed_designs of a shipped design, or the mirror image of one."""
    return st.tuples(perturbed_designs(path), st.booleans()).map(
        lambda pair: mirror_mechanism(pair[0]) if pair[1] else pair[0]
    )


def _mechanism_text(mech) -> str:
    """A mechanism file's text, as write_mechanism_file renders it."""
    return json.dumps(mechanism_to_dict(mech.spec), indent=2) + "\n"


@pytest.mark.parametrize("path", [REFERENCE_PATH, DEMO_PATH], ids=lambda p: p.stem)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mechanism_text_round_trips_byte_for_byte(path, data):
    text = _mechanism_text(data.draw(_designs_and_mirrors(path), label="design"))
    again = validate_mechanism(parse_mechanism_text(text))
    assert _mechanism_text(again) == text


@pytest.mark.parametrize("path", [REFERENCE_PATH, DEMO_PATH], ids=lambda p: p.stem)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data(), samples=st.sampled_from([8, 90, 360]))
def test_trajectory_csv_round_trips_byte_for_byte(path, data, samples):
    mech = data.draw(_designs_and_mirrors(path), label="design")
    text = trajectory_csv_text(sweep_gait(mech, samples))
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "trajectory.csv"
        csv.write_text(text, encoding="utf-8")
        columns = read_trajectory_csv(csv)
    reread = types.SimpleNamespace(
        phi=np.radians(columns["phi_deg"]),
        theta_s_deg=columns["theta_s_deg"],
        theta_e_deg=columns["theta_e_deg"],
        elbow_path=np.column_stack([columns["elbow_x_mm"], columns["elbow_y_mm"]]),
        tip_path=np.column_stack([columns["tip_x_mm"], columns["tip_y_mm"]]),
    )
    assert trajectory_csv_text(reread) == text


# Values that stress %.12g and %.2f: signed zeros, subnormals, the largest
# doubles (whose differences overflow) and the non-finite ones.
_EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310,
                1.7976931348623157e308, -1e308, 1e-300)
_values = st.one_of(st.floats(-1e3, 1e3), st.floats(), st.sampled_from(_EDGE_FLOATS))


def _csv_reference(phi, shoulder_deg, elbow_deg, elbow_path, tip_path) -> str:
    """Trajectory CSV as written one np.float64 at a time."""
    columns = (np.degrees(phi), shoulder_deg, elbow_deg, *np.transpose(elbow_path),
               *np.transpose(tip_path))
    lines = [",".join(TRAJECTORY_COLUMNS)]
    lines.extend(",".join("%.12g" % v for v in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.lists(_values, min_size=7, max_size=7), min_size=1, max_size=12))
def test_csv_text_matches_per_value_formatting(rows):
    table = np.array(rows, dtype=float)
    columns = (table[:, 0], table[:, 1], table[:, 2], table[:, 3:5], table[:, 5:7])
    with np.errstate(all="ignore"):  # np.degrees overflows near 1e308
        assert _csv_text(*columns) == _csv_reference(*columns)


def _polylines_reference(x, y, x_range, y_range, width: int, height: int) -> list[str]:
    """The points of each polyline of one series, mapped and formatted one
    sample at a time and split at non-finite samples."""
    x_lo, x_hi = _data_range([x], x_range)
    y_lo, y_hi = _data_range([y], y_range)
    px_lo, px_hi = _MARGIN_L, float(width) - _MARGIN_R
    py_lo, py_hi = float(height) - _MARGIN_B, _MARGIN_T

    def sx(v):
        return px_lo + (v - x_lo) / (x_hi - x_lo) * (px_hi - px_lo)

    def sy(v):
        return py_lo + (v - y_lo) / (y_hi - y_lo) * (py_hi - py_lo)

    lines, pts = [], []
    for xv, yv in zip(x, y):
        if np.isfinite(xv) and np.isfinite(yv):
            pts.append(f"{sx(xv):.2f},{sy(yv):.2f}")
        elif pts:
            lines.append(" ".join(pts))
            pts = []
    if pts:
        lines.append(" ".join(pts))
    return lines


_NAN, _INF = math.nan, math.inf


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    points=st.lists(st.tuples(_values, _values), min_size=2, max_size=40),
    x_range=st.none() | st.tuples(st.floats(-1e3, 0.0), st.floats(1.0, 1e3)),
    y_range=st.none() | st.tuples(st.floats(-1e3, 0.0), st.floats(1.0, 1e3)),
    size=st.sampled_from([(720, 480), (333, 201)]),
)
@example(  # non-finite samples first, in a run, alone and last
    points=[(_NAN, 1.0), (_INF, 2.0), (0.5, 3.0), (1.5, -_INF), (2.5, _NAN), (3.5, 4.0),
            (4.5, 5.0), (-_INF, 6.0), (5.5, 7.0), (6.5, _NAN)],
    x_range=None, y_range=None, size=(720, 480),
)
def test_svg_polylines_match_per_point_formatting(points, x_range, y_range, size):
    """The polylines of a plot are its points mapped one at a time; a plot
    whose data span no finite axis (values near 1e308) raises ValueError,
    and no SVG holds a NaN."""
    x, y = (np.array(v, dtype=float) for v in zip(*points))
    plot = PlotSpec(title="t", x_label="x", y_label="y", series=[Series("s", x, y)],
                    width=size[0], height=size[1], x_range=x_range, y_range=y_range)
    try:
        _data_range([x], x_range), _data_range([y], y_range)
    except ValueError:
        with pytest.raises(ValueError, match="axis span"):
            render_svg(plot)
        return
    with np.errstate(all="ignore"):  # points far outside an explicit range overflow
        svg = render_svg(plot)
        want = _polylines_reference(x, y, x_range, y_range, *size)
    assert "nan" not in svg.lower()
    assert re.findall(r'<polyline points="([^"]*)"', svg) == want


def _assert_rigid(mech, config) -> None:
    """The two attachment points of every joint coincide, and every pair of
    points on one body (a link, or ground) lies at its distance in the
    body's own frame."""
    world = config.points
    for joint in mech.spec.joints:
        a, b = (np.array(world[f"{body}:{point}"]) for body, point in (joint.a, joint.b))
        assert float(np.hypot(*(a - b))) <= NEWTON_TOL_MM, joint.id
    bodies = {link.id: link.points for link in mech.spec.links}
    bodies["ground"] = {p.id: np.array([p.x, p.y]) for p in mech.spec.ground_pivots}
    for body, points in bodies.items():
        names = sorted(points)
        for i, p in enumerate(names):
            for q in names[i + 1 :]:
                local = float(np.hypot(*(points[p] - points[q])))
                swept = float(np.hypot(*np.subtract(world[f"{body}:{p}"], world[f"{body}:{q}"])))
                assert abs(swept - local) <= 1e-9, (body, p, q)


@pytest.mark.parametrize("path", [REFERENCE_PATH, DEMO_PATH], ids=lambda p: p.stem)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data(), samples=st.sampled_from([8, 12, 36]))
def test_swept_poses_are_rigid_and_closed(path, data, samples):
    mech = data.draw(_designs_and_mirrors(path), label="design")
    for config in sweep_gait(mech, samples).configurations:
        _assert_rigid(mech, config)


def test_newton_poses_of_the_triad_are_rigid_and_closed():
    mech = validate_mechanism(_triad_sixbar())
    assert mech.plan is None
    for config in sweep_gait(mech, 36).configurations[::6]:
        _assert_rigid(mech, config)


@st.composite
def crank_rockers(draw):
    """Ground, crank, coupler, rocker of a crank-rocker with Grashof slack.

    The crank is the shortest link and s + l stays at least 10% of p + q
    below p + q, which keeps the transmission angle off the toggle poses.
    """
    crank = draw(st.floats(5.0, 20.0), label="crank")
    others = [draw(st.floats(25.0, 80.0), label=name) for name in ("g", "c", "r")]
    longest = max(others)
    rest = sum(others) - longest
    assume(crank + longest <= 0.9 * rest)
    return (others[0], crank, others[1], others[2])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(lengths=crank_rockers(), branch=st.sampled_from(["open", "crossed"]))
def test_random_grashof_fourbars(lengths, branch):
    spec = fourbar_spec(*lengths, branch=branch)
    mech = validate_mechanism(spec)
    assert mech.plan is not None
    assert "grashof_margin[j_wrist]" in constraint_names(mech)
    analytic = sweep_series(mech, 72)
    newton = sweep_series(mech, 72, method="newton")
    gap = np.abs(wrap_pi(analytic["free"] - newton["free"]))
    assert float(np.max(gap)) <= 1e-9
    twice = mirror_mechanism(mirror_mechanism(mech))
    assert mechanism_to_dict(twice.spec) == mechanism_to_dict(mech.spec)


def _newton_mechanism(name, data):
    if name == "crank-rocker":
        lengths = data.draw(crank_rockers(), label="lengths")
        return validate_mechanism(fourbar_spec(*lengths))
    if name == "triad":
        return validate_mechanism(_triad_sixbar())
    if name == "geared-fivebar":
        return validate_mechanism(_geared_fivebar())
    reference = _shipped(REFERENCE_PATH)
    return mirror_mechanism(reference) if name == "mirror" else reference


@pytest.mark.parametrize(
    "name", ["reference", "mirror", "triad", "geared-fivebar", "crank-rocker"]
)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data(), phi=st.floats(0.0, 2.0 * np.pi))
def test_newton_jacobian_matches_central_differences(name, data, phi):
    mech = _newton_mechanism(name, data)
    nq = len(mech.free_joints)
    angle = st.floats(-np.pi, np.pi)
    q = np.array([data.draw(angle, label=jid) for jid in mech.free_joints])
    jac = _closure_jacobian(_forward(mech, phi, q))
    h = 1e-6
    fd = np.empty((2 * len(mech.closures), nq))
    for k, step in enumerate(h * np.eye(nq)):
        plus = _forward(mech, phi, q + step).gap
        minus = _forward(mech, phi, q - step).gap
        fd[:, k] = (plus - minus) / (2.0 * h)
    assert float(np.max(np.abs(jac - fd))) <= 1e-7 * float(np.max(np.abs(jac)))


def _angle_reads(mech, name: str) -> set[int]:
    """The compiled read-set of angle output ``name``: that of the step
    record that sets it (both links' for a joint angle read from link
    orientations), and its offset slot."""
    table, key, _, offset = mech._angle_outputs[name]
    made = {("alpha", mech.spec.driver.joint): (mech._driver_slot,)}
    for kind, step in mech.steps:
        if kind == "tree":
            made["theta", step.child] = step.reads
        elif kind == "gear":
            made["alpha", step.joint_out] = step.reads
        else:
            made["theta", step.link1] = made["theta", step.link2] = step.reads
    if (table, key) in made:
        return {*made[table, key], offset}
    joint = mech.joints[key]
    ends = (made.get(("theta", link), ()) for link in (joint.a[0], joint.b[0]))
    return {*(slot for reads in ends for slot in reads), offset}


def _read_set_outputs(mech, series: dict) -> dict:
    """Each output a read-set bounds, by name: (value, compiled read-set)."""
    out = {name: (series[f"{name}_deg"], _angle_reads(mech, name))
           for name in ("theta_s", "theta_e")}
    for step in mech.plan:
        for key in ("margin", "transmission"):
            out[f"{key}[{step.closure}]"] = (series[key][step.closure], set(step.reads))
    values, table = _constraint_core(mech, series), mech.constraints
    for i, entry in enumerate(table):
        if entry.kind == "grashof":  # with its crank entry: the loop's spans
            pair = [j for j, other in enumerate(table)
                    if other.kind in ("grashof", "crank") and other.closure == entry.closure]
            out[f"spans[{entry.closure}]"] = (values[pair], {s for j in pair for s in table[j].reads})
        elif entry.kind == "symmetry":
            out[entry.name] = (values[i], set(entry.reads))
    return out


@pytest.mark.parametrize("path", [REFERENCE_PATH, DEMO_PATH], ids=lambda p: p.stem)
def test_outputs_move_with_their_read_sets_only(path):
    """Perturbing one geom slot outside an output's compiled read-set leaves
    the output bit for bit; every slot inside it moves the output at some
    sample of some drawn design, so a read-set that held every slot fails.
    The angle series are unwrapped only when every sample assembles, so
    they are compared where the perturbation leaves ok unchanged."""
    moved: dict[str, set[int]] = {}
    wanted: dict[str, set[int]] = {}

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), perturb=st.booleans(), mirror=st.booleans())
    def check(data, perturb, mirror):
        mech = data.draw(perturbed_designs(path), label="design") if perturb else _shipped(path)
        mech = mirror_mechanism(mech) if mirror else mech
        size = mech.geom.size
        base = sweep_series(mech, 36, strict=False)
        want = _read_set_outputs(mech, base)
        batch = mech.copy()  # design s moves slot s alone
        batch.geom = mech.geom + np.diag(1e-4 * np.maximum(1.0, np.abs(mech.geom)))
        swept = sweep_series(batch, 36, strict=False)
        for slot in range(size):
            one = mech.copy()
            one.geom = batch.geom[slot]
            got = _read_set_outputs(one, _row(swept, slot))
            same_ok = np.array_equal(swept["ok"][slot], base["ok"])
            for name, (value, reads) in want.items():
                wanted.setdefault(name, set()).update(reads)
                if slot in reads:
                    if not _same_bits(got[name][0], value):
                        moved.setdefault(name, set()).add(slot)
                elif same_ok or not name.startswith("theta"):
                    assert _same_bits(got[name][0], value), (name, slot)

    check()
    assert moved == wanted


def _on_demand_case(case: str, data):
    """(graph, method) of a sweep whose entries are read on demand."""
    if case == "triad":
        return validate_mechanism(_triad_sixbar()), "newton"
    if case == "batch":  # three uniform draws in the box: some fail somewhere
        mech = _shipped(REFERENCE_PATH)
        columns = {}
        for name, binding in mech.parameters.items():
            u = np.array([data.draw(st.floats(0.0, 1.0), label=name) for _ in range(3)])
            columns[name] = np.clip(binding.min + u * (binding.max - binding.min),
                                    binding.min, binding.max)
        return mech.with_parameters(columns), "auto"
    path = {"reference": REFERENCE_PATH, "demo": DEMO_PATH}[case]
    return data.draw(_designs_and_mirrors(path), label="design"), "auto"


@pytest.mark.parametrize("case", ["reference", "demo", "batch", "triad"])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_entries_read_on_demand_match_reading_all_in_order(case, data):
    """Entries of a sweep are computed when first read.  One entry read alone
    from a fresh sweep, or every entry read in a shuffled order, has the
    bits of every entry read in key order; so do a one-design sweep's
    tangents taken before any entry is read, and a strict sweep of a design
    that assembles everywhere."""
    mech, method = _on_demand_case(case, data)

    def fresh(strict=False):
        return sweep_series(mech, 36, strict=strict, method=method)

    ordered = fresh()
    keys = [key for key in ordered if key != "_solution"]
    want = {key: ordered[key] for key in keys}
    one = data.draw(st.sampled_from(keys), label="one entry")
    assert _same_bits(fresh()[one], want[one])
    shuffled = fresh()
    order = data.draw(st.permutations(keys), label="order")
    assert _same_bits({key: shuffled[key] for key in order}, want)
    assert list(shuffled) == list(ordered)
    if mech.geom.ndim == 1:
        dgeom = np.random.default_rng(3).normal(size=(3, mech.geom.size))
        assert _same_bits(sweep_tangents(fresh(), dgeom), sweep_tangents(ordered, dgeom))
    if np.all(want["ok"]):
        strict = fresh(strict=True)
        assert _same_bits({key: strict[key] for key in keys}, want)


def test_a_strict_sweep_raises_at_its_first_failing_phase():
    """Computing entries on read leaves the strict check eager: a strict sweep
    raises at the first failed sample of the first failing dyad in plan
    order, the sample the non-strict sweep's transmissions name."""
    mech = _shipped(REFERENCE_PATH).with_parameters({"crank_len": 31.0})
    series = sweep_series(mech, 360, strict=False)
    assert not np.all(series["ok"])
    for step in mech.plan:
        trans = series["transmission"][step.closure]
        if np.any(np.isnan(trans)):
            kind, bad = NotAssemblable, np.isnan(trans)
            break
        if np.any(trans < COLLINEAR_TOL_RAD):
            kind, bad = SingularConfiguration, trans < COLLINEAR_TOL_RAD
            break
    with pytest.raises(kind) as err:
        sweep_series(mech, 360)
    assert err.value.phi == float(series["phi"][bad][0])
    assert step.closure in str(err.value)


@pytest.mark.parametrize("method", ["analytic", "newton"])
def test_a_sweep_owns_its_geometry(method):
    """Editing a graph's geometry after a sweep moves no entry of the sweep
    read afterwards, none of its tangents and none of its configurations."""
    mech = _shipped(REFERENCE_PATH).copy()
    ratio = next(step.ratio for kind, step in mech.steps if kind == "gear")
    dgeom = np.random.default_rng(7).normal(size=(3, mech.geom.size))
    before = sweep_series(mech, 36, method=method)
    want = {key: before[key] for key in before if key != "_solution"}
    want_tangents = sweep_tangents(before, dgeom)
    want_poses = list(sweep_gait(mech, 36, method=method).configurations)
    series = sweep_series(mech, 36, method=method)
    gait = sweep_gait(mech, 36, method=method)
    mech.geom[ratio] *= 1.5
    mech.geom += 0.25
    assert _same_bits({key: series[key] for key in want}, want)
    assert _same_bits(sweep_tangents(series, dgeom), want_tangents)
    assert list(gait.configurations) == want_poses


def _entries(series: Mapping) -> dict:
    """Every entry of a sweep_series result but the solution object."""
    return {key: series[key] for key in series if key != "_solution"}


@pytest.mark.parametrize("path, stage, values", [
    (REFERENCE_PATH, "humerus", {}), (REFERENCE_PATH, "radius", {}), (REFERENCE_PATH, "all", {}),
    (DEMO_PATH, "humerus", {}), (DEMO_PATH, "all", {}),
    # The radius stage's frozen humerus dyad fails at 7 of 36 phases.
    (REFERENCE_PATH, "radius", {"shoulder_y": -45.0}),
], ids=["reference-humerus", "reference-radius", "reference-all", "demo-humerus", "demo-all",
        "reference-radius-failing-frozen-dyad"])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(units=st.lists(st.lists(st.floats(0.0, 1.0), min_size=24, max_size=24),
                      min_size=1, max_size=3))
def test_a_stage_trial_sweep_is_the_plain_sweep(path, stage, values, units):
    """A stage trial's sweep, which takes the steps no live slot moves from
    the stage's frozen solution, equals the plain sweep of the same graph
    entry for entry, bit for bit (ok, margins, transmissions, angles, tip,
    elbow, residual, free and the continuity figures), and so do their
    tangents along the live directions and along every slot.  Points: x0,
    the lower box corner, which does not assemble, and random box points."""
    mech = _shipped(path).with_parameters(values) if values else _shipped(path)
    problem = _StageProblem(mech, sample_targets(36), stage, FitOptions())
    frozen_ok = problem.frozen is None or bool(np.all(problem.frozen.ok))
    assert frozen_ok == (not values)
    span = problem.upper - problem.lower
    points = [problem.x0, problem.lower] + [problem.lower + np.array(u[: span.size]) * span
                                            for u in units]
    every = np.eye(problem.mech.geom.size)
    assembled = []
    for x in points:
        point = problem.at(x)
        plain = sweep_series(point.graph, 36, strict=False)
        assert _same_bits(_entries(point.series), _entries(plain))
        for dgeom in (problem.dgeom, every):
            assert _same_bits(sweep_tangents(point.series, dgeom), sweep_tangents(plain, dgeom))
        assembled.append(bool(np.all(plain["ok"])))
    assert assembled[0] == frozen_ok and not assembled[1]
