"""Reference seconds: wall time rescaled by how fast the machine ran at
each moment, measured with a fixed piece of work.

The benchmark's times are taken on shared virtual machines whose speed
changes by up to 1.7x within a second and whose mix of fast and slow
stretches drifts over minutes (see README.md).  A `Meter` samples that
speed in the measured process itself: every INTERVAL_S a SIGALRM handler
runs `reference()` twice and times the second, warm, call.  The program's
time between two samples counts NOMINAL_S / (mean of the two samples)
reference seconds per wall second, so a stretch at the nominal speed
counts as wall time and a stretch at half that speed counts half.  The samples' own time
counts as nothing.

`reference()` is an integer loop plus Fraction arithmetic: qlverify spends
its time in interpreted loops over small ints and in Fraction objects, and
each half alone tracked some workloads worse than the two together.
"""

from __future__ import annotations

import array
import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
# Time of one reference() call in the fast state of a 2-vCPU Intel Xeon
# (2.1 GHz) VM with Python 3.11: its samples there ran 60-62 us fast and
# 86-112 us slow.  The value only sets the unit; parent and change are
# measured with the same one, and speeds above 1.0 are possible.
NOMINAL_S = 6.0e-05

_X, _Y = Fraction(3, 7), Fraction(5, 11)


def reference() -> int:
    """The fixed work whose duration is the machine's speed sample."""
    s = 0
    for i in range(1000):
        s += i
    x, y = _X, _Y
    for _ in range(7):
        s += (x * y + x - y).denominator
    return s


class Meter:
    """Samples the machine's speed from SIGALRM while it runs, and turns
    any interval of its run into reference seconds afterwards."""

    def __init__(self):
        self.marks = array.array("d")  # start, end of each sample
        self._clock = None

    def sample(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the machine's speed
        try:
            reference()
            t0 = time.monotonic()
            reference()
            t1 = time.monotonic()
        finally:
            if collecting:
                gc.enable()
        self.marks.append(t0)
        self.marks.append(t1)

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        self._clock = None

    def speeds(self) -> list[float]:
        """NOMINAL_S / duration of every sample: 1.0 at the nominal speed."""
        m = self.marks
        return [NOMINAL_S / (m[i + 1] - m[i]) for i in range(0, len(m), 2)]

    def _build(self):
        m = self.marks
        starts, ends = m[0::2], m[1::2]
        durs = [e - s for s, e in zip(starts, ends)]
        # rate[i]: reference seconds per wall second in the gap that ends
        # at sample i; the last one follows the last sample
        rate = [NOMINAL_S / durs[0]]
        rate += [2 * NOMINAL_S / (a + b) for a, b in zip(durs, durs[1:])]
        rate.append(NOMINAL_S / durs[-1])
        # at_start[i]: reference seconds from the first sample to sample i
        at_start = [0.0]
        for i in range(1, len(starts)):
            at_start.append(at_start[-1] + (starts[i] - ends[i - 1]) * rate[i])
        self._clock = (list(starts), list(ends), rate, at_start)

    def at(self, t: float) -> float:
        """Reference seconds from the first sample to monotonic time t."""
        if self._clock is None:
            self._build()
        starts, ends, rate, at_start = self._clock
        i = bisect.bisect_right(starts, t)
        if i == 0:
            return (t - starts[0]) * rate[0]
        if t <= ends[i - 1]:
            return at_start[i - 1]
        return at_start[i - 1] + (t - ends[i - 1]) * rate[i]

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the program's time between monotonic
        times a and b."""
        return self.at(b) - self.at(a)
