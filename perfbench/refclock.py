"""Wall time rescaled to a fixed reference core speed.

The benchmark shares its cores with other tenants.  On the 2-vCPU KVM guest
(Intel Xeon, 2.1 GHz nominal) it was written on, one fixed pure-Python loop
ran up to 1.6 times faster or slower from one stretch of tens of seconds to
the next, and process CPU time moved with wall time: the core itself changed
speed.  Identical passes read straight off the clock spread by about 30%.

A ``SpeedSampler`` runs ``probe`` -- a fixed loop of dict, tuple and integer
work that shares no code with chevlab -- from a SIGALRM handler every
``PERIOD_S`` seconds inside the measured process.  ``ref_seconds(a, b)``
weighs each stretch between two probes by ``REF_PROBE_S`` over the median
probe time in a window around it.  The result is how long [a, b] would have
taken on a core where one probe takes ``REF_PROBE_S``; the probes' own time
is left out.  A change to chevlab moves it just as it moves wall time, since
the probe does not run chevlab code.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

clock = time.monotonic        # CLOCK_MONOTONIC: comparable across processes

PERIOD_S = 0.02
WINDOW = 15
REF_PROBE_S = 1e-4            # about one probe on the machine above


def probe() -> float:
    """Run the fixed probe once; return its duration in seconds.

    Its keys are ints, not tuples: it allocates almost no objects the
    cyclic garbage collector tracks, so it does not move the points where
    the measured code's collections run, and with them its peak RSS.
    """
    t0 = clock()
    d = {}
    for i in range(400):
        k = (i % 31) * 32 + i % 29
        d[k] = d.get(k, 0) + (i * 7919) % 1013
    sorted(d)
    return clock() - t0


class SpeedSampler:
    """Probe samples taken on a timer while the process works."""

    def __init__(self):
        # Flat arrays of doubles: a list of tuples would leave small live
        # objects in every heap arena the measured code frees, and so raise
        # its peak RSS.
        self.ends = array("d")          # clock when each sample ended
        self.durations = array("d")     # the timed probe
        self.spent = array("d")         # the whole sample, warm-up included
        self._previous = None

    def _on_alarm(self, signum, frame):
        # The first run refills the caches the measured code evicted; only
        # the second is timed, so the sample follows the core's speed and
        # not the measured code's memory footprint.
        begin = clock()
        probe()
        self.durations.append(probe())
        end = clock()
        self.ends.append(end)
        self.spent.append(end - begin)

    def start(self):
        self._on_alarm(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds spent in [start, end], samples excluded."""
        lo = bisect.bisect_right(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        if lo == hi:        # shorter than one period: use the latest probes
            window = sorted(self.durations[max(0, hi - WINDOW):hi])
            return (end - start) / window[len(window) // 2] * REF_PROBE_S
        half = WINDOW // 2
        total = 0.0
        prev = start
        for i in range(lo, hi):
            window = sorted(self.durations[max(lo, i - half):
                                           min(hi, i + half + 1)])
            total += (self.ends[i] - prev - self.spent[i]) \
                / window[len(window) // 2]
            prev = self.ends[i]
        total += (end - prev) / window[len(window) // 2]
        return total * REF_PROBE_S
