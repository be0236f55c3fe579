"""Wall times in seconds of a reference CPU.

The host the benchmark runs on is shared, and the speed of its CPUs drifts by
tens of percent within seconds and over minutes, far more than a change worth
catching.  So a fixed pure-Python loop (reference_loop) is timed right before
and right after each timed interval, and every PROBE_EVERY_S of CPU time while
it runs, from a SIGPROF handler.  The interval's wall time, less the
handler's, is scaled by REFERENCE_S over the mean loop time: an op that takes
as long as twenty loops reads as 20 * REFERENCE_S, whatever the CPU's speed
at that moment.

Stdlib only, and imported first, so that set-up can be probed too.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# What reference_loop takes on the reference CPU, the unit of every end-to-end
# time.  The 2-vCPU Xeon VM the baseline was taken on runs it in 2 to 4 ms.
REFERENCE_S = 0.003
PROBE_EVERY_S = 0.05


def reference_loop() -> int:
    """Fixed work of the kind the program does: dict and set updates,
    tuple keys and frozenset intersections."""
    groups: dict[tuple[int, int], set[int]] = {}
    acc = 0
    for i in range(4000):
        members = groups.setdefault((i % 97, i % 13), set())
        members.add(i & 255)
        acc += len(members)
    base = frozenset(range(200))
    for i in range(300):
        acc += len(base & frozenset(range(i, i + 50)))
    return acc


def reference_time() -> float:
    """Seconds reference_loop takes now.  The garbage collector is held
    off, so that an op's leftovers cannot slow the loop down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Reference loops timed around one interval and, unless ``inside`` is
    false, inside it.  Create it right before the interval, enter it as the
    interval starts, leave it as the interval ends.  The handler's own time
    is kept in ``stolen``, to be taken off the interval's."""

    def __init__(self, inside: bool = True):
        self.loops = [reference_time()]
        self.stolen = 0.0
        self.inside = inside

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.loops.append(reference_time())
        self.stolen += time.perf_counter() - t

    def __enter__(self):
        if self.inside:
            signal.signal(signal.SIGPROF, self._tick)
            signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self) -> float:
        """REFERENCE_S over the mean loop time: wall seconds to reference
        seconds.  Call once, after the interval."""
        self.loops.append(reference_time())
        return REFERENCE_S / statistics.fmean(self.loops)
