"""Host speed, sampled all through the timed loop.

On a shared host the same code runs up to about 1.5x slower for seconds
to minutes at a time, as other tenants load the machine; two runs of
one program can then differ by more than any change worth measuring.
:class:`HostSpeed` times a fixed pure-Python probe fifty times a second
from a ``SIGALRM`` interval timer, so the probe also samples the inside
of long ops.  Each op is then scaled by the probe's nominal time over
its median time within 100 ms of the op: the scaled time reads as if
the host had run at its nominal speed throughout.

The probe is benchmark code, never ``repro`` code, so a change to the
program moves op times and leaves the probe alone.  It allocates no
container objects, so it neither triggers nor pays for the program's
garbage collections.  Time spent in the probe is taken out of the op it
interrupted (:meth:`HostSpeed.probe_ns_between`).
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from statistics import median

PROBE_ITERATIONS = 2_500
#: probe time (ns) taken as the host's nominal speed: about its median
#: on a 2-vCPU x86-64 VM with CPython 3.11
PROBE_NOMINAL_NS = 200_000
INTERVAL_S = 0.02
WINDOW_NS = 100_000_000


def _probe() -> int:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return total


class HostSpeed:
    """Probe samples (start, duration) taken while the timer is on."""

    def __init__(self):
        self.starts = array("q")
        self.durations = array("q")
        self._previous = None
        self._sampling = False

    def _sample(self, _signum, _frame) -> None:
        if self._sampling:
            # a tick that lands inside a slow probe is dropped, so
            # samples never nest and stay in start order
            return
        self._sampling = True
        start = time.perf_counter_ns()
        _probe()
        self.durations.append(time.perf_counter_ns() - start)
        self.starts.append(start)
        self._sampling = False

    def sample_now(self, count: int) -> float:
        """Take *count* samples in a row; their scale, as :meth:`scale`."""
        first = len(self.durations)
        for _ in range(count):
            self._sample(None, None)
        return PROBE_NOMINAL_NS / median(self.durations[first:])

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def probe_ns_between(self, start_ns: int, end_ns: int) -> int:
        """Time the probe took between two clock readings."""
        first = bisect.bisect_left(self.starts, start_ns)
        last = bisect.bisect_left(self.starts, end_ns)
        return sum(self.durations[first:last])

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Nominal over measured probe time around one op."""
        first = bisect.bisect_left(self.starts, start_ns - WINDOW_NS)
        last = bisect.bisect_right(self.starts, end_ns + WINDOW_NS)
        if first == last:
            # no sample near the op: fall back on the whole run
            first, last = 0, len(self.durations)
        return PROBE_NOMINAL_NS / median(self.durations[first:last])

    def summary(self) -> dict:
        if not self.durations:
            return {"samples": 0}
        ordered = sorted(self.durations)
        return {"samples": len(ordered),
                "nominal_ns": PROBE_NOMINAL_NS,
                "min_ns": ordered[0],
                "median_ns": ordered[len(ordered) // 2],
                "max_ns": ordered[-1]}
