"""Host speed: a fixed reference kernel, timed inside the ops of a run.

On the shared 2-core VM the benchmark was built on, the CPU time of fixed
work drifts with the load of the other guests: over five minutes, the median
CPU time of one sensitivity rank moved between 140 and 213 ms from one 20 s
window to the next, a quartile spread of 0.20 to 0.26.  Longer runs do not
help, because a slow stretch outlasts a run.

A small kernel, run every ``INTERVAL_S`` of wall time from a SIGALRM handler
while an op runs, moves with the host.  On 27 repeats of one radius_polish
op, CPU time spread 0.116 and CPU time over the median kernel time inside
the op spread 0.072.  Timed in a burst after the op instead, the kernel ran
up to 40% faster than inside it, with its data warm in the cache, and the
ratio spread 0.157; so the kernel runs inside the ops, where the cache is as
cold as the op leaves it.  Its own CPU time is taken out of the op's.

A run reports every op CPU time scaled by ``REFERENCE_S`` over the
run's median kernel time: CPU seconds at the host speed at which the kernel
takes ``REFERENCE_S``.  The kernel uses numpy and plain Python in the mix
the armwing core uses (circle intersections on 360 samples, dicts of
parameters, a 30x30 solve) and no armwing code, so a change to the package
cannot move it.  Import this module only after
``checkout.use_checkout_source`` has pinned BLAS to one thread.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 2.4e-3  # kernel CPU seconds at the speed figures are quoted in
INTERVAL_S = 0.1  # seconds between kernel runs: about 2.4% of an op

_PHI = np.linspace(0.0, 2.0 * np.pi, 360)
_MATRIX = np.eye(30) * 2.0 + 0.01
_RHS = np.ones(30)


def _intersect(c1, r1, c2, r2, sign):
    delta = c2 - c1
    d = np.hypot(delta[..., 0], delta[..., 1])
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h = np.sqrt(np.maximum(r1 * r1 - a * a, 0.0))
    ux, uy = delta[..., 0] / d, delta[..., 1] / d
    return np.stack(
        [c1[..., 0] + a * ux - sign * h * uy, c1[..., 1] + a * uy + sign * h * ux],
        axis=-1,
    )


def kernel() -> float:
    """Fixed work: twelve two-loop sweeps of a toy linkage and a solve each."""
    acc = 0.0
    for k in range(12):
        p = {f"p{i}": 10.0 + i + 0.01 * k for i in range(40)}
        crank = np.column_stack([p["p1"] * np.cos(_PHI), p["p1"] * np.sin(_PHI)])
        ground = np.array([p["p2"] + 20.0, 0.0])
        elbow = _intersect(crank, p["p3"] + 15.0, ground, p["p4"] + 10.0, 1.0)
        tip = _intersect(elbow, p["p5"], ground, p["p6"] + 12.0, -1.0)
        angle = np.arctan2(tip[:, 1] - elbow[:, 1], tip[:, 0] - elbow[:, 0])
        acc += float(np.nansum(np.degrees(angle)))
        acc += float(np.linalg.solve(_MATRIX, _RHS).sum())
    return acc


class HostSpeed:
    """Kernel CPU times taken inside the ops of one run, and their scale.

    A Python signal handler runs between bytecodes of the main thread, so
    the kernel never interrupts the package inside a C call and shares no
    state with it: the op's results do not change.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.inside = 0.0  # kernel CPU seconds inside the current op
        self._in_op = False

    def _tick(self, signum, frame) -> None:
        if self._in_op:
            t0 = time.process_time()
            kernel()
            took = time.process_time() - t0
            self.samples.append(took)
            self.inside += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def op(self):
        """Sample the kernel during the block; ``inside`` is its CPU time."""
        self.inside = 0.0
        self._in_op = True
        try:
            yield self
        finally:
            self._in_op = False

    def factor(self) -> float:
        """Multiply a CPU time of this run by this to quote it at the
        reference speed; above 1 on a host faster than the reference, and 1
        before the first sample."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.median(self.samples)
