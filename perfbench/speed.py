"""Machine-speed sampling, so that timings can be stated in reference seconds.

A shared machine can switch between speed states about 1.5x apart, each
lasting from under a second to minutes; the slowdown shows in CPU time too,
so no clock of the process's own avoids it.  :class:`SpeedTrace` times a
fixed pure-Python kernel on a real-time timer signal, in the main thread
and so on the same core as the work, and :meth:`SpeedTrace.scaler` turns a
measured interval into the seconds the same work takes when the kernel
runs in ``KERNEL_REF_S``.

The rescaling assumes the work runs on the main thread alone.  Then a
kernel run that interrupts an interval stops all work, so its time is
taken out, and its duration is the core's speed.  With other Python
threads working, the kernel would wait on the GIL while they run, and both
effects would make the work look faster than it is.  Each sample therefore
records ``threading.active_count()``, and an interval in which a sample saw
more than one thread is returned in raw seconds and counted in
:attr:`SpeedTrace.raw_intervals`.  A thread that starts and ends between
two samples (under ``PERIOD_S``) is not seen.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import threading
import time

KERNEL_REF_S = 2.0e-4  # about the kernel's best time on the machine the benchmark was defined on
PERIOD_S = 0.02


def _kernel() -> float:
    total = 0.0
    for i in range(1, 3001):
        total += math.sqrt(i) * 1.0000001
    return total


class SpeedTrace:
    """Times the kernel every ``PERIOD_S`` of wall time until :meth:`stop`."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self.threads: list[int] = []  # threading.active_count() at each sample
        self.raw_intervals = 0  # intervals returned in raw seconds: threads seen
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.kernel_s.append(time.perf_counter() - start)
        self.threads.append(threading.active_count())

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaler(self):
        """A function giving the reference seconds of the work done in [start, end].

        Kernel runs that interrupted the interval are not work and are taken
        out; the speed is the mean kernel time over the interval and the
        samples either side of it, each sample capped at twice the median so
        that a preempted sample cannot dominate a short interval.  An
        interval during which other threads ran is returned unscaled.
        """
        starts, kernel_s, threads = list(self.starts), list(self.kernel_s), list(self.threads)
        cap = 2.0 * statistics.median(kernel_s)

        def scaled(start: float, end: float) -> float:
            first = bisect.bisect_left(starts, start)
            last = bisect.bisect_left(starts, end)
            if max(threads[first:last], default=1) > 1:
                self.raw_intervals += 1
                return end - start
            work = end - start - sum(kernel_s[first:last])
            window = kernel_s[max(first - 1, 0): last + 1]
            mean = sum(min(k, cap) for k in window) / len(window)
            return work * KERNEL_REF_S / mean

        return scaled
