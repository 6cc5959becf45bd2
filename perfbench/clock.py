"""Times rescaled to a fixed reference speed of the machine.

Imported by fresh processes before the program (see run.py and the cli
workload), so it keeps to light standard-library modules.

On a shared machine single-core speed drifts: on a 2-core VM a fixed
pure-Python loop ran at speeds a factor 1.5 to 2 apart, flipping within
half a second and drifting over tens of seconds.  Raw wall-clock medians
of two runs minutes apart then differ by more than any useful regression
bound.

So while a run measures, an interval timer interrupts it every PERIOD_S
seconds to time a short reference loop of Python float arithmetic and libm
calls, the kind of work the program's narrow paths do.  The time spent in
these ticks is subtracted from every measured interval.  Each operation's
wall time is then rescaled by C_REF / (median tick duration within
WINDOW_S of the operation): a rescaled time reads "seconds on a machine
that runs the reference loop in C_REF seconds".  The loop does not touch the
program, so a change to the program cannot move the scale.  A fresh
process (a worker's set-up, a `poncelet` command) runs its own ticks and
is rescaled by their median, since the other core's speed need not be its
own.
"""

import bisect
import math
import signal
import time

PERIOD_S = 0.02
WINDOW_S = 0.05
REF_ITERATIONS = 1000
#: Nominal duration of one reference loop, in seconds.
C_REF = 4e-4


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return (ordered[mid] if len(ordered) % 2
            else 0.5 * (ordered[mid - 1] + ordered[mid]))


def reference_loop():
    acc = 0.0
    for i in range(REF_ITERATIONS):
        acc += math.atan2(math.sin(i * 0.1), math.cos(i * 0.3) + 2.0)
    return acc


class Clock:
    """Use as a context manager; ticks run only inside it."""

    def __init__(self):
        self.tick_at = []
        self.tick_s = []
        self.stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        spent = time.perf_counter() - start
        self.tick_at.append(start)
        self.tick_s.append(spent)
        self.stolen += spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def now(self):
        return time.perf_counter(), self.stolen

    @staticmethod
    def interval(t0, t1):
        """Start, end and wall seconds between two `now()` readings, less
        the time spent in ticks."""
        return {"start": t0[0], "end": t1[0],
                "wall": (t1[0] - t0[0]) - (t1[1] - t0[1])}

    def scale(self, start, end):
        """C_REF over the median tick duration around [start, end]."""
        lo = bisect.bisect_left(self.tick_at, start - WINDOW_S)
        hi = bisect.bisect_right(self.tick_at, end + WINDOW_S)
        if lo == hi:  # no tick that close: take the nearest one
            lo = max(0, min(lo, len(self.tick_at) - 1))
            hi = lo + 1
        return C_REF / _median(self.tick_s[lo:hi])

    def whole_scale(self):
        """C_REF over the median of every tick so far."""
        return C_REF / _median(self.tick_s)

