"""armwing benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload staged_fit --seed 1 --seconds 22 --trace 0

Workloads are staged_fit, radius_polish, sensitivity_rank and gait_sweep
(workloads.py).  The loop is closed: one client, the next op starts when the
previous one ends, all in this one process.  Ops run until the next one
would, at the median op time so far, end past ``--seconds`` of op wall time;
at least one op always runs.  Inputs come from ``--seed`` alone (inputs.py),
except on radius_polish, which fits the same designs whatever the seed.
Every output is checked outside the timed region; an op that raises or fails
its check counts as failed.

Op times are CPU seconds of this process (``time.process_time``), not wall
time.  The package is single-threaded and BLAS is pinned to one thread, so
an op's CPU time is its whole cost; on a shared 2-core VM the wall time of
the same fixed loop spread 43% (quartile distance over median) against 6.5%
for its CPU time, because the hypervisor takes the vCPU away for stretches.
That clock cannot see work done in other processes, and would sum the CPU of
parallel threads, so an op that leaves a second thread or a child process
alive fails.  CPU time still drifts with the load of other guests, so every
op time is scaled to a reference host speed, measured by a kernel that runs
inside the ops and whose own time is taken out (calibrate.py).  The lines
before the JSON give the raw wall-clock median and the scale; a traced run
reports them as ``bench.op_wall_s_p50`` and ``bench.host_factor``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
untraced and traced on the same input (alternating which goes first),
requires identical output bytes from both, and prints per-layer metrics per
op from the traced runs (tracing.py).  Spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.

The last line of standard output is the JSON result; the lines before it
give every metric in words, with sample counts and the input digest.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext

from checkout import OUT, ROOT, SRC, MissingSource, shipped_designs, use_checkout_source

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# Runs in a fresh interpreter: import the package, parse and validate every
# shipped design, print the CPU seconds that took.
SETUP_CODE = """
import sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
from armwing import parse_mechanism_file, validate_mechanism
for path in sys.argv[2:]:
    validate_mechanism(parse_mechanism_file(path))
print(repr(time.process_time() - t0))
"""


def measure_setup() -> list[float]:
    """CPU seconds to import + parse + validate, once per fresh interpreter."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    argv += [str(p) for p in shipped_designs()]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            argv, capture_output=True, text=True, check=True,
            timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the values around it (the
    inclusive method: a run of few fits gives no value beyond its slowest)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def os_threads() -> int:
    """Threads of this process, as the operating system counts them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:  # no procfs: count the threads Python knows of
        return threading.active_count()


def stray_workers() -> str | None:
    """Why the CPU clock would mis-time an op that just ended, or None.

    Work in another process is not on ``process_time``, and work in a second
    thread is summed with the first, so either would turn a change in wall
    time into a false figure."""
    children = multiprocessing.active_children()
    if children:
        return f"{len(children)} child processes alive after the op"
    threads = os_threads()
    if threads > 1:
        return f"{threads} threads alive after the op"
    return None


class Ops:
    """Outcome of a measured loop: op CPU and wall seconds, output
    summaries, failures."""

    def __init__(self):
        self.durations: list[float] = []
        self.walls: list[float] = []
        self.summaries: list = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.durations) + self.failed

    def record(self, workload, index: int, timing, out, why: str | None) -> None:
        if why is None:
            self.durations.append(timing[0])
            self.walls.append(timing[1])
            self.summaries.append(workload.summary(out))
        else:
            self.failed += 1
            print(f"op {index} failed: {why}", file=sys.stderr)


def timed_op(workload, x, span, host=None):
    """((CPU s, wall s), output, traceback or None).  Only the op is timed;
    with ``host``, the host-speed kernel samples run inside it and their
    time is taken out."""
    with host.op() if host else nullcontext() as sampler:
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            out, why = workload.op(x, span), None
        except Exception:  # a raising op is a failed op; the run goes on
            out, why = None, traceback.format_exc()
        c1, w1 = time.process_time(), time.perf_counter()
    kernel_s = sampler.inside if sampler else 0.0
    timing = (c1 - c0 - kernel_s, w1 - w0 - kernel_s)
    return timing, out, why or stray_workers()


def window_full(spent: float, walls: list[float], seconds: float) -> bool:
    """True when one more op of median wall time would overrun the window."""
    return spent + statistics.median(walls) > seconds


def timed_run(workload, seconds: float, host) -> Ops:
    from tracing import untraced_span

    ops = Ops()
    walls, index = [], 0
    while True:
        x = workload.make_input(index)
        timing, out, why = timed_op(workload, x, untraced_span, host)
        if why is None:
            why = workload.check(x, out)
        ops.record(workload, index, timing, out, why)
        walls.append(timing[1])
        index += 1
        if window_full(sum(walls), walls, seconds):
            return ops


def traced_run(workload, seconds: float, host, tracer) -> tuple[Ops, Ops]:
    """Each input untraced and traced, in alternating order.  An input
    fails in the traced tally when either run of it fails or their output
    bytes differ.  The host-speed kernel runs inside the untraced ops only,
    so it lands in no span."""
    from tracing import untraced_span

    plain, traced = Ops(), Ops()
    pairs, index = [], 0
    while True:
        x = workload.make_input(index)
        result = {}
        for mode in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
            if mode == "plain":
                result[mode] = timed_op(workload, x, untraced_span, host)
            else:
                tracer.op = index
                with tracer.installed():
                    result[mode] = timed_op(workload, x, tracer.span)
        (dp, out_p, why_p), (dt, out_t, why_t) = result["plain"], result["traced"]
        if why_p is None:
            why_p = workload.check(x, out_p)
        if why_t is None:
            why_t = workload.check(x, out_t)
        if why_p is not None:
            why_t = why_t or f"untraced op failed: {why_p}"
        elif why_t is None and workload.fingerprint(out_p) != workload.fingerprint(out_t):
            why_t = "traced output differs from untraced output"
        plain.record(workload, index, dp, out_p, why_p)
        traced.record(workload, index, dt, out_t, why_t)
        pairs.append(dp[1] + dt[1])
        index += 1
        if window_full(sum(pairs), pairs, seconds):
            return plain, traced


def end_to_end(ops: Ops, setup: list[float], host) -> dict:
    """Op times at the reference host speed.  Setup runs in other processes,
    where the kernel cannot sample the host, so its time stays raw."""
    scale = host.factor()
    durations = ops.durations or [0.0]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "op_s_p50": metric(statistics.median(durations) * scale, "s"),
        "op_s_p90": metric(p90(durations) * scale, "s"),
    }


def per_layer(workload, plain: Ops, traced: Ops, spans: list, host) -> dict:
    """Per-op layer numbers from the traced ops, in raw CPU seconds (see
    README.md)."""
    from tracing import SWEEP, LayerTotals

    totals = LayerTotals(spans)
    n = max(1, traced.attempted)

    def self_s(*names):
        return metric(sum(totals.self_s.get(name, 0.0) for name in names) / n, "s")

    def inclusive_s(name):
        return metric(totals.inclusive.get(name, 0.0) / n, "s")

    def calls(name):
        return metric(totals.calls.get(name, 0) / n, "count")

    starts = []
    if workload.fit:
        starts = [s for _, fit_starts in traced.summaries for s in fit_starts]
    n_starts = max(1, len(starts))
    samples = max(1, totals.samples)
    plain_s = statistics.fmean(plain.durations or [0.0])
    traced_s = statistics.fmean(traced.durations or [0.0])
    root_s = totals.inclusive.get(workload.root, 0.0)
    return {
        "linkage.apply_calls": calls("linkage.with_parameters"),
        "linkage.apply_s": self_s("linkage.with_parameters"),
        "linkage.validate_s": self_s("linkage.validate"),
        "solver.sweep_calls": calls(SWEEP),
        "solver.sweep_s": self_s(SWEEP),
        "solver.us_per_sample": metric(1e6 * totals.inclusive.get(SWEEP, 0.0) / samples, "us"),
        "solver.failed_sample_ratio": metric(totals.failed / samples, "ratio"),
        "solver.gait_self_s": self_s("solver.sweep_gait"),
        "fourbar.circle_circle_calls": calls("fourbar.circle_circle"),
        "fourbar.circle_circle_s": self_s("fourbar.circle_circle"),
        "fitting.driver_self_s": self_s("fitting.optimize_armwing", "fitting.optimize_stage"),
        "fitting.minimize_s": inclusive_s("fitting.minimize"),
        "fitting.polish_s": inclusive_s("fitting.least_squares"),
        "fitting.scipy_self_s": self_s("fitting.minimize", "fitting.least_squares"),
        "fitting.iterations": metric(sum(s.iterations for s in starts) / n, "count"),
        "fitting.evals_per_start": metric(totals.fit_evals / n_starts, "count"),
        "fitting.polish_accept_ratio": metric(sum(s.polished for s in starts) / n_starts, "ratio"),
        "fitting.dead_start_ratio": metric(sum(not s.feasible for s in starts) / n_starts, "ratio"),
        "fitting.cost_ratio": metric(first_fit_cost_ratio(workload, traced), "ratio"),
        "sensitivity.self_s": self_s("sensitivity.sensitivity_rank"),
        "io.serialize_s": self_s("io.serialize"),
        "io.parse_s": self_s("io.parse"),
        "io.csv_write_s": self_s("io.csv_write"),
        "svgplot.render_s": self_s("svgplot.render"),
        "bench.gait_op_self_s": self_s("bench.gait_op"),
        "bench.op_wall_s_p50": metric(statistics.median(plain.walls or [0.0]), "s"),
        "bench.host_factor": metric(host.factor(), "ratio"),
        "trace.op_s": metric(plain_s, "s"),
        "trace.overhead_s": metric(traced_s - plain_s, "s"),
        "trace.root_self_share": metric(
            totals.self_s.get(workload.root, 0.0) / root_s if root_s else 0.0, "ratio"
        ),
    }


def first_fit_cost_ratio(workload, ops: Ops) -> float:
    """Final over initial cost of the run's first fit, on design 0: it
    repeats exactly per seed, however many fits the window holds."""
    if not workload.fit or ops.failed or not ops.summaries:
        return 0.0
    return ops.summaries[0][0]


def describe(workload, args, ops: Ops, setup: list[float], metrics: dict, host) -> None:
    """Human-readable lines, printed before the JSON result."""
    print(
        f"workload {workload.name} seed {args.seed}: {ops.attempted} ops "
        f"attempted, {ops.failed} failed; {workload.designs.drawn} input designs, "
        f"sha256 {workload.designs.digest()}"
    )
    print(
        f"host factor {host.factor():.4g} from {len(host.samples)} kernel timings: "
        "op times below are scaled by it to the reference host speed"
    )
    if not args.trace:
        print(f"setup_s: median of {len(setup)} fresh interpreters, CPU seconds")
        unit, n = workload.unit, len(ops.durations)
        print(f"{unit}_s_p50 = {metrics['op_s_p50']['value']:.6g} s over {n} ops")
        print(f"{unit}_s_p90 = {metrics['op_s_p90']['value']:.6g} s over {n} ops")
        if ops.walls:
            print(f"wall-clock {unit}_s_p50 = {statistics.median(ops.walls):.6g} s (raw, reference only)")
        if workload.fit:
            print(f"fit_cost_ratio = {first_fit_cost_ratio(workload, ops)!r} (first fit)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        use_checkout_source()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from armwing import parse_mechanism_file, validate_mechanism
    from calibrate import HostSpeed
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    setup = [] if args.trace else measure_setup()
    base = validate_mechanism(parse_mechanism_file(shipped_designs()[0]))
    workload = WORKLOADS[args.workload](base, args.seed)
    host = HostSpeed()

    host.start()
    try:
        if args.trace:
            tracer = Tracer()
            plain, ops = traced_run(workload, args.seconds, host, tracer)
        else:
            ops = timed_run(workload, args.seconds, host)
    finally:
        host.stop()
    if args.trace:
        metrics = per_layer(workload, plain, ops, tracer.spans, host)
        tracer.write_jsonl(OUT / f"trace-{workload.name}-{args.seed}.jsonl")
    else:
        metrics = end_to_end(ops, setup, host)

    describe(workload, args, ops, setup, metrics, host)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
