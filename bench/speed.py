"""A machine-speed reference, for timing on a shared and noisy host.

Where other tenants share the cores, the same Python code runs up to twice
as slowly for seconds at a time.  A short pure-Python reference loop slows
down by the same factor: on a 2-vCPU host the ratio of a phi round trip to
this loop stayed within about 5% while both varied 2x.  So while ops run, a
timer signal runs the loop every EVERY_SECONDS, and each op time is scaled
by the loop's time around it:

    scaled = raw * REFERENCE_SECONDS / (median loop time near the op)

which is the op's time at the speed where the loop takes REFERENCE_SECONDS.
Samples taken inside an op are subtracted from its raw time.  The loop calls
nothing in the package, so a change to the package moves the scaled times
exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# The loop's time on an idle core of the host the baseline was taken on
# (2.1 GHz, Python 3.11), so scaled times read as that host's idle times.
REFERENCE_SECONDS = 0.6e-3
EVERY_SECONDS = 0.1
WINDOW_SECONDS = 0.3  # samples this close to an op set its speed


def reference_loop() -> int:
    total, seen = 0, {}
    for i in range(2500):
        key = (i & 63, i * 7 % 13)
        seen[key] = seen.get(key, 0) + 1
        total += len(seen) + (i & 3)
    return total


class Speed:
    """Reference-loop samples, taken on a timer while the context is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._saved = None

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def __enter__(self) -> "Speed":
        self._saved = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_SECONDS, EVERY_SECONDS)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.sample()

    def spent_in(self, start: float, end: float) -> float:
        """Seconds the samples took within [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.seconds[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The op time over [start, end], without samples, at reference speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_SECONDS)
        hi = bisect.bisect_right(self.starts, end + WINDOW_SECONDS)
        near = self.seconds[lo:hi] or self.seconds
        raw = end - start - self.spent_in(start, end)
        return raw * REFERENCE_SECONDS / statistics.median(near)
