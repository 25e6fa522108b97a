"""Self-tests of the benchmark: seeded inputs, outside-in tracing, the
host-speed kernel and the guard on the op clock.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

from checkout import shipped_designs, use_checkout_source

use_checkout_source()

import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import armwing.fitting  # noqa: E402
import armwing.solver  # noqa: E402
from armwing import (  # noqa: E402
    evaluate_constraints,
    parse_mechanism_file,
    validate_mechanism,
)

from calibrate import HostSpeed, kernel  # noqa: E402
from inputs import DesignStream, free_parameters  # noqa: E402
from run import stray_workers  # noqa: E402
from tracing import PATCHES, LayerTotals, Tracer, untraced_span  # noqa: E402
from workloads import GaitSweep, RadiusPolish, SensitivityRank, StagedFit  # noqa: E402


@pytest.fixture(scope="module")
def base():
    return validate_mechanism(parse_mechanism_file(shipped_designs()[0]))


def test_generator_is_deterministic_per_seed(base):
    a, b, other = DesignStream(base, 7), DesignStream(base, 7), DesignStream(base, 8)
    for i in (0, 1, 2):
        values = a.design(i).parameter_values()
        assert b.design(i).parameter_values() == values
        assert other.design(i).parameter_values() != values
    assert a.digest() == b.digest() != other.digest()
    # Design i depends on (seed, i) only, not on which designs came before.
    late = DesignStream(base, 7).design(2).parameter_values()
    assert late == a.design(2).parameter_values()


def test_generator_moves_only_unpinned_free_parameters(base):
    names = free_parameters(base)
    assert len(names) == 30
    assert "crank_pivot_x" not in names and "crank_phase" not in names
    design = DesignStream(base, 3).design(0)
    nominal, moved = base.parameter_values(), design.parameter_values()
    for name, value in moved.items():
        if name in names:
            assert abs(value - nominal[name]) <= 0.02 * abs(nominal[name]) + 1e-12
        else:
            assert value == nominal[name]
    assert np.max(evaluate_constraints(design, samples=360)) <= 0.0


def test_wrappers_are_installed_and_removed(base):
    originals = [vars(owner)[attr] for owner, attr, _ in PATCHES]
    tracer = Tracer()
    with tracer.installed():
        for (owner, attr, _), original in zip(PATCHES, originals):
            assert vars(owner)[attr] is not original
        armwing.solver.sweep_gait(base, 36)
    for (owner, attr, _), original in zip(PATCHES, originals):
        assert vars(owner)[attr] is original
    names = {span[0] for span in tracer.spans}
    assert {"solver.sweep_gait", "solver.sweep_series", "fourbar.circle_circle"} <= names


def _traced(workload, x):
    tracer = Tracer()
    tracer.op = 0
    with tracer.installed():
        out = workload.op(x, tracer.span)
    return out, tracer


@pytest.mark.parametrize("cls", [SensitivityRank, GaitSweep])
def test_wrapping_changes_no_result(base, cls, monkeypatch):
    if cls is SensitivityRank:
        monkeypatch.setattr("workloads.RANK_POOL", 1)
    workload = cls(base, 5)
    x = workload.make_input(0)
    plain = workload.op(x, untraced_span)
    traced, tracer = _traced(workload, x)
    assert workload.fingerprint(traced) == workload.fingerprint(plain)
    assert workload.check(x, traced) is None
    totals = LayerTotals(tracer.spans)
    root = [s for s in tracer.spans if s[3] == -1]
    assert len(root) == 1 and root[0][0] == workload.root
    assert sum(totals.self_s.values()) == pytest.approx(root[0][2] - root[0][1], rel=1e-9)
    assert all(v >= 0.0 for v in totals.self_s.values())
    if cls is GaitSweep:
        assert "linkage.with_parameters" not in totals.calls
        assert totals.calls["solver.sweep_series"] == 1
    else:
        assert totals.calls["linkage.with_parameters"] == 2 * len(base.parameters)


def test_wrapping_changes_no_fit(base, monkeypatch):
    """A one-start staged fit reports identical bytes traced."""
    monkeypatch.setattr("workloads.FIT_MULTISTARTS", 1)
    workload = StagedFit(base, 5)
    x = workload.make_input(0)
    plain = workload.op(x, untraced_span)
    traced, tracer = _traced(workload, x)
    assert workload.fingerprint(traced) == workload.fingerprint(plain)
    totals = LayerTotals(tracer.spans)
    assert totals.calls["fitting.minimize"] == 2
    assert "fitting.least_squares" not in totals.calls  # polish off
    assert totals.fit_evals > 0
    assert armwing.fitting.minimize.__module__.startswith("scipy")


def test_wrapping_changes_no_polish(base):
    """The radius-stage polish reports identical bytes traced, and its
    least-squares call is on the trace."""
    workload = RadiusPolish(base, 5)
    x = workload.make_input(0)
    plain = workload.op(x, untraced_span)
    traced, tracer = _traced(workload, x)
    assert workload.fingerprint(traced) == workload.fingerprint(plain)
    assert workload.check(x, traced) is None
    totals = LayerTotals(tracer.spans)
    assert totals.calls["fitting.minimize"] == 1
    assert totals.calls["fitting.least_squares"] == 1
    assert totals.self_s["fitting.least_squares"] > 0.0


def test_polish_fits_one_design_as_a_fresh_graph_every_op(base):
    a, b = RadiusPolish(base, 1), RadiusPolish(base, 2)
    first, later = a.make_input(0)[0], b.make_input(5)[0]
    assert first.parameter_values() == later.parameter_values()
    assert first is not later
    assert first.parameter_values() != base.parameter_values()


def test_a_second_thread_fails_the_op():
    assert stray_workers() is None
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert "threads alive" in stray_workers()
    finally:
        stop.set()
        worker.join()


def test_host_kernel_runs_inside_ops_only():
    assert kernel() == kernel()
    host = HostSpeed()
    host.start()
    try:
        end = time.process_time() + 0.35
        while time.process_time() < end:  # outside an op: no samples
            pass
        assert host.samples == []
        with host.op():
            end = time.process_time() + 0.35
            while time.process_time() < end:
                pass
    finally:
        host.stop()
    assert len(host.samples) >= 2
    assert host.inside == pytest.approx(sum(host.samples))
    assert host.factor() > 0.0
