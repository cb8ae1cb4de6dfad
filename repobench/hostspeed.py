"""Host speed during a stretch of work, sampled while the work runs.

The benchmark runs on shared hosts whose speed drifts: other tenants
slow every instruction of the program by up to ~1.7x, in phases that
last from a fraction of a second to many minutes.  A wall-clock time
alone therefore measures the host as much as the program, and two sets
of runs an hour apart disagree by more than any useful bound.

:class:`HostSpeed` samples the host while the program runs: an
interval timer (``SIGALRM``, every :data:`PERIOD_S`) interrupts the
program between two bytecodes and runs :func:`kernel` twice, timing
the second run: a fixed pure-Python loop over heaps, dicts, objects
and floats -- the instruction mix of the program's scheduling code,
and none of the program's own code, so a change to the program cannot
move it.  (The first run refills the caches the program just used;
timed cold, the kernel mostly measured those.)  The samples are
grouped in windows of :data:`WINDOW` consecutive samples (~0.1 s), and
a window's *factor* is its median sample over
:data:`REFERENCE_KERNEL_S`: how much slower than the reference host the
host ran then.  For a stretch ``[a, b)`` of the program's work,
``reference_s(a, b)`` is its wall-clock time less the samples inside
it, each piece divided by the factor of its window: the stretch's time
on the reference host, the figure the end-to-end host metrics report.
On the development VM, over 30 s in which the host kept changing
phase, this cut the spread of a sim_disk pass's time between passes
from 0.27 to 0.06.

A sample costs 2-4 % of the host's time.  The program is otherwise
untouched: no code path changes, and the fingerprints of a sampled
pass equal those of an unsampled one (self-tested).
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

import numpy

#: Sampling period, seconds.
PERIOD_S = 0.02
#: Samples per window of one host-speed factor.
WINDOW = 4
#: One kernel run on the reference host (the benchmark's 2-core Xeon
#: development VM at its fastest), seconds.  Fixed: changing it
#: rescales every host metric.
REFERENCE_KERNEL_S = 0.00022
#: Iterations of one kernel run.
KERNEL_STEPS = 240


class _Entry:
    __slots__ = ("key", "value", "link")

    def __init__(self, key: float, value: int) -> None:
        self.key = key
        self.value = value
        self.link = None


def kernel(steps: int = KERNEL_STEPS) -> float:
    """A fixed, deterministic stretch of interpreter work."""
    heap: list = []
    table: dict = {}
    total = 0.0
    key = 0.5
    for step in range(steps):
        key = (key * 3.9 * (1.0 - key)) or 0.5
        entry = _Entry(key, step)
        heapq.heappush(heap, (entry.key, step, entry))
        table[step & 255] = entry
        if len(heap) > 32:
            _, _, oldest = heapq.heappop(heap)
            other = table.get(oldest.value & 255)
            oldest.link = other
            total += oldest.key * oldest.value - (other.key if other
                                                  else 0.0)
    return total


class HostSpeed:
    """Samples :func:`kernel` every :data:`PERIOD_S` while installed.

    Samples are (start, duration) pairs in ``time.perf_counter``
    seconds, in start order.  Window ``j`` holds samples
    ``[j * WINDOW, (j + 1) * WINDOW)`` and covers the time from its
    first sample's start to the next window's; the first window also
    covers all time before it, the last (which takes in the partial
    window after it) all time after it.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._sampling = False

    def _sample(self, signum, frame) -> None:
        # A tick that arrives while a sample runs (the host stalled
        # for a whole period) is dropped: nesting would record samples
        # out of start order.
        if self._sampling:
            return
        self._sampling = True
        try:
            clock = time.perf_counter
            kernel()
            started = clock()
            kernel()
            self.starts.append(started)
            self.durations.append(clock() - started)
        finally:
            self._sampling = False

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # Restart interrupted system calls (sqlite, pipes) instead of
        # failing them with EINTR.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "HostSpeed":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _windows(self) -> int:
        return max(len(self.starts) // WINDOW, 1)

    def _window(self, t: float) -> int:
        index = bisect.bisect_right(self.starts, t) - 1
        return min(max(index, 0) // WINDOW, self._windows() - 1)

    def _factor_of(self, window: int) -> float:
        lo = window * WINDOW
        hi = lo + WINDOW if window < self._windows() - 1 else None
        samples = self.durations[lo:hi]
        if not samples:
            return 1.0
        return statistics.median(samples) / REFERENCE_KERNEL_S

    def program_s(self, a: float, b: float) -> float:
        """Wall-clock seconds of ``[a, b)`` less the samples in it."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return (b - a) - sum(self.durations[lo:hi])

    def reference_latencies(self, starts, latencies):
        """Each call's latency over the factor of the window it
        started in, as a float32 array."""
        windows = self._windows()
        index = numpy.searchsorted(self.starts, starts, side="right") - 1
        window = numpy.minimum(numpy.maximum(index, 0) // WINDOW,
                               windows - 1)
        factors = numpy.array([self._factor_of(w) for w in range(windows)])
        return (numpy.asarray(latencies) / factors[window]).astype(
            numpy.float32)

    def factor(self, a: float, b: float) -> float:
        """Median host slowdown over ``[a, b)`` (1.0 without samples)."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        if lo == hi:
            return 1.0
        return statistics.median(self.durations[lo:hi]) / REFERENCE_KERNEL_S

    def reference_s(self, a: float, b: float) -> float:
        """``[a, b)``'s program time on the reference host: each piece
        of it in one window, less the samples in the piece, over that
        window's factor."""
        total = 0.0
        while a < b:
            window = self._window(a)
            end = b
            if window < self._windows() - 1:
                end = min(b, self.starts[(window + 1) * WINDOW])
            lo = bisect.bisect_left(self.starts, a)
            hi = bisect.bisect_left(self.starts, end)
            program = (end - a) - sum(self.durations[lo:hi])
            total += program / self._factor_of(window)
            a = end
        return total
