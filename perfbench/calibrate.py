"""Host-speed calibration for timings taken on a shared machine.

Other tenants of a shared host slow a single-threaded process by up to 2x
for spells of seconds to minutes, which no statistic over the program's own
timings removes.  ``Clock`` therefore runs a fixed kernel, independent of the
program, from a timer signal every ``PERIOD_S`` seconds.  The time the
signal handler takes is subtracted from every interval, and the interval is
scaled by ``KERNEL_REF_S`` over the mean kernel time observed during it:
the result estimates the interval on an uncontended host.  The untraced and
the traced workload processes both time with it.

Cheaper estimators were measured on the same runs (five seeds per workload,
35 s each, 2 vCPU Intel Xeon).  Scaling by kernel runs taken only before and
after each command left the spread of the per-run medians (IQR/median over
the seeds) at up to 0.12, against at most 0.07 with the ticks, and the
spread within a run at 0.13 to 0.29, against 0.03 to 0.12.  Process CPU time
(``time.process_time``) removed none of the contention: it was as noisy as
wall time, because the tenants slow the CPU rather than take it away.

The kernel's method-call part is there because without it butterfly-sweep's
calibrated medians still rose with the host's slowdown (log-log slope 1.2
over ten seeds at kernel slowdowns 1.1 to 1.9; IQR/median up to 0.13).  On
five seeds per workload, adding it cut the spread within a run on
butterfly-sweep (per pass 0.038 to 0.023, per swept run 0.073 to 0.048) and
of simulate on grid-history (0.068 to 0.053), and left the other figures
within 0.01.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

#: seconds between calibration ticks
PERIOD_S = 0.1
#: shortest window whose ticks calibrate an interval, so that a short
#: command still averages about ten ticks
MIN_WINDOW_S = 1.0
#: the kernel's time on an uncontended host (Intel Xeon, 2 vCPU); a
#: constant, so calibrated timings of different runs compare directly
KERNEL_REF_S = 0.0047

_A = np.linspace(0.0, 1.0, 201)


class _Segment:
    def __init__(self, center, sigma, lo, hi):
        self.center, self.sigma, self.lo, self.hi = center, sigma, lo, hi

    def line(self, x, lo, hi):
        if not (self.lo <= x <= self.hi):
            return 0.0
        z = (x - self.center) / self.sigma
        a = (max(lo, self.lo) - self.center) / self.sigma
        b = (min(hi, self.hi) - self.center) / self.sigma
        return math.exp(-0.5 * z * z) * (math.erf(b) - math.erf(a))


_SEGMENTS = [_Segment(0.1 * k, 0.2 + 0.01 * k, -1.0, 1.0) for k in range(4)]


def kernel():
    """A Python float loop, method calls on small objects with ``math.exp``
    and ``math.erf``, and small numpy reductions, as in the program's scans,
    on a working set small enough not to evict the program's data."""
    s = 0.0
    for i in range(12000):
        s += math.exp(-0.5 * (i * 2.5e-4) ** 2)
    for i in range(700):
        x = -1.0 + i * (2.0 / 700)
        for seg in _SEGMENTS:
            s += seg.line(x, -0.5, 0.5)
    for _ in range(250):
        s += float(np.clip(np.minimum(_A, 0.6) - np.maximum(_A, 0.2), 0.0, None) @ _A)
    return s


class Clock:
    """Calibrated interval timer; ``start`` installs the timer signal and
    ``stop`` removes it.  ``sample`` runs the kernel once more now, so that
    even an interval shorter than a tick has one.  Times are
    ``time.perf_counter`` readings."""

    def __init__(self):
        self.ends = []
        self.kernel_s = []
        self.handler_s = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.kernel_s.append(t1 - t0)
        self.handler_s.append(time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self):
        self._tick(None, None)

    def busy(self, t0, t1):
        """Seconds the program ran in [t0, t1]: the interval less the ticks
        that fell in it."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return (t1 - t0) - sum(self.handler_s[lo:hi])

    def factor(self, t0, t1):
        """Reference over observed host speed around [t0, t1], from the ticks
        in a window of at least MIN_WINDOW_S around it, else the nearest one
        on each side."""
        pad = max(0.0, 0.5 * (MIN_WINDOW_S - (t1 - t0)))
        w_lo = bisect.bisect_right(self.ends, t0 - pad)
        w_hi = bisect.bisect_right(self.ends, t1 + pad)
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        ticks = self.kernel_s[w_lo:w_hi] or self.kernel_s[max(lo - 1, 0):hi + 1]
        return KERNEL_REF_S / statistics.mean(ticks)

    def calibrated(self, t0, t1):
        """(seconds the program ran in [t0, t1], the same scaled to the
        reference host speed)."""
        busy = self.busy(t0, t1)
        return busy, busy * self.factor(t0, t1)
