"""Host-speed gauge: reference-speed CPU time for the benchmark's passes.

On a shared virtual machine the speed of one thread swings by up to 2x
within seconds, in CPU time too, as the host's load comes and goes.  The
swing slows gwrec's interpreter-bound Fraction arithmetic and a small
piece of the same kind of work alike, so the gauge measures it alongside
the pass: a profiling timer (ITIMER_PROF, every PERIOD_S of CPU time)
interrupts the pass and times `reference_kernel`, a fixed pure-Python
loop over small Fractions, tuples and a dict.  Each stretch of a timed
span between two samples is then scaled by the host's speed there:

    reference seconds = CPU seconds * NOMINAL_S / (median kernel time of
                        the SMOOTH samples around the stretch)

so a figure reads as the CPU time the work would take on a host where the
kernel takes NOMINAL_S.  The kernel's own time is subtracted from every
span it interrupts, and the kernel never touches gwrec, so a change to
gwrec moves the reported time as it moves the real CPU time.

Times are read from the thread's CPU clock: while a process-wide CPU
timer is armed, Linux advances the process CPU clock only once per tick.
The benchmark's pass is single-threaded.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
NOMINAL_S = 250e-6  # about the kernel time on the 2-CPU VM the bounds were set on
SMOOTH = 5  # samples in the median that gives the speed at one sample


def reference_kernel():
    table = {}
    for i in range(1, 60):
        key = (i % 5, i % 7)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 13 - 6, i % 9 + 1)
    return table


class Gauge:
    """Samples the host's speed while started; `spent` is the CPU time the
    samples took, which `end` subtracts from a span."""

    def __init__(self):
        self.stamps = []  # thread CPU time at the start of each sample
        self.costs = []  # kernel CPU time of each sample
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        t = time.thread_time()
        reference_kernel()
        cost = time.thread_time() - t
        self.stamps.append(t)
        self.costs.append(cost)
        self.spent += cost

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def probe(self, n):
        """Take n samples at once (for set-up, which is over before the
        timer would fire often enough)."""
        for _ in range(n):
            self._sample()

    def begin(self):
        return time.thread_time(), self.spent

    def end(self, mark):
        """The raw CPU time since `mark`, less the gauge's own, and the
        window of thread CPU time it covered."""
        t0, spent0 = mark
        t1 = time.thread_time()
        return t1 - t0 - (self.spent - spent0), t0, t1

    def scale(self, lo, hi):
        """NOMINAL_S over the median kernel time of samples lo..hi-1."""
        return NOMINAL_S / statistics.median(self.costs[max(0, lo):hi])

    def reference(self, span):
        """Reference-speed CPU seconds of a span returned by `end`: each
        stretch of the span between two samples is scaled by the host's
        speed there (the median of the SMOOTH samples around it), so a span
        during which the host changes speed is scaled piece by piece."""
        raw, t0, t1 = span
        j = bisect.bisect_right(self.stamps, t0) - 1
        covered, t = 0.0, t0
        while t < t1:
            nxt = self.stamps[j + 1] if j + 1 < len(self.stamps) else t1
            end = min(nxt, t1)
            k = max(j, 0)
            covered += (end - t) * self.scale(k - SMOOTH // 2, k + SMOOTH // 2 + 1)
            t, j = end, j + 1
        return raw * covered / (t1 - t0) if t1 > t0 else 0.0
