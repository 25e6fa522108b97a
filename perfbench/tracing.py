"""Outside-in layer tracing for the benchmark's traced run.

The package is not edited.  Instead, for the duration of a traced run, the
names one armwing module imports from the next are replaced by timing
wrappers (see PATCHES), and the benchmark opens spans of its own around the
calls it makes directly.  Every span records its name, start, end, parent
span and op id; spans stay in memory and are written out once, at the end.

Span times are CPU seconds of the process (``time.process_time``), the
clock the benchmark times ops with.  A layer's self time is its span's
duration minus the durations of its direct child spans.  Calls on one
thread nest strictly, so the self times of all spans of an op add up
exactly to the op's root span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import armwing.fitting
import armwing.sensitivity
import armwing.solver
from armwing import MechanismGraph

# (owner, attribute, span name).  The three sweep_series entries are the same
# function seen from three importing modules; sweep_gait reaches it through
# armwing.solver's own global.
PATCHES = (
    (armwing.fitting, "sweep_series", "solver.sweep_series"),
    (armwing.sensitivity, "sweep_series", "solver.sweep_series"),
    (armwing.solver, "sweep_series", "solver.sweep_series"),
    (MechanismGraph, "with_parameters", "linkage.with_parameters"),
    (armwing.fitting, "minimize", "fitting.minimize"),
    (armwing.fitting, "least_squares", "fitting.least_squares"),
    (armwing.solver, "circle_circle", "fourbar.circle_circle"),
    (armwing.solver, "sweep_gait", "solver.sweep_gait"),
    (armwing.sensitivity, "sweep_gait", "solver.sweep_gait"),
)

SWEEP = "solver.sweep_series"
FIT_SOLVERS = ("fitting.minimize", "fitting.least_squares")

# span fields
NAME, START, END, PARENT, OP, SAMPLES, FAILED = range(7)


def untraced_span(name: str):
    """The span factory of an untraced run: does nothing."""
    return nullcontext()


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time(), 0.0, parent, self.op, 0, 0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.process_time()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if name == SWEEP:
                ok = result["ok"]
                tracer.spans[index][SAMPLES] = int(ok.size)
                tracer.spans[index][FAILED] = int(ok.size - ok.sum())
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every PATCHES name for a timing wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name in PATCHES:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op", "samples", "failed")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class LayerTotals:
    """Per span name: calls, inclusive seconds and self seconds."""

    def __init__(self, spans: list[list]):
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.samples = 0
        self.failed = 0
        self.fit_evals = 0  # sweeps made inside minimize or least_squares
        child_s = [0.0] * len(spans)
        in_fit_solver = [False] * len(spans)
        # A parent is opened, hence appended, before any of its children.
        for i, span in enumerate(spans):
            parent = span[PARENT]
            if parent >= 0:
                child_s[parent] += span[END] - span[START]
                in_fit_solver[i] = in_fit_solver[parent] or spans[parent][NAME] in FIT_SOLVERS
            if span[NAME] == SWEEP:
                self.samples += span[SAMPLES]
                self.failed += span[FAILED]
                self.fit_evals += in_fit_solver[i]
        for i, span in enumerate(spans):
            duration = span[END] - span[START]
            self.calls[span[NAME]] += 1
            self.inclusive[span[NAME]] += duration
            self.self_s[span[NAME]] += duration - child_s[i]
