"""Machine-speed probe: times at a fixed reference speed.

On a shared machine one core's speed drifts for the same work: on a
2-vCPU Xeon VM with Python 3.11, identical blocks of verified rounds took
from 330 to 730 ms within one minute, with CPU time tracking wall time.
The drift lasts from tens of milliseconds to seconds.  Times here are the
process's CPU time, which also leaves out the rarer stalls in which the
process does not run at all.

The probe runs a fixed pure-Python kernel every ``PERIOD_S`` from a
SIGALRM handler, in the one thread there is, and records how fast it ran:
``REFERENCE_S`` over its CPU time.  The kernel's mix (small tuples, dict
traffic, bit loops, Fractions) tracked the drift of toystab's own work
more closely than pure integer or object kernels did.  An interval's time
at reference speed is its CPU time, less the kernel runs inside it, times
the mean speed of the samples taken within ``WINDOW_S`` of it.  Against
sampling every 50 ms within 250 ms, on bvc-mc this sampling halved the
seed-to-seed spread of the median op time and cut that of the tail by a
third, for about 2% of the CPU.
"""

from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD_S = 0.02
WINDOW_S = 0.025
# the kernel's duration at reference speed, near its duration on the
# machine above when that ran fast; it sets the scale of every
# normalised time and cancels out of every comparison
REFERENCE_S = 0.00021


def kernel(reps: int = 300) -> int:
    acc = 0
    seen = {}
    for i in range(reps):
        t = (i, i ^ (i >> 1), i & 7)
        seen[t[2]] = seen.get(t[2], 0) + t[1]
        x = i
        while x:
            x &= x - 1
            acc += 1
        if i % 16 == 0:
            acc += (Fraction(i, 7) * Fraction(3, 5)).numerator & 1
    return acc + len(seen)


class SpeedProbe:
    """Samples the machine's speed while active (a context manager)."""

    def __init__(self):
        self.times: list[float] = []    # wall-clock start of each kernel run
        self.speeds: list[float] = []   # REFERENCE_S / kernel CPU time
        self.spent = 0.0                # total CPU time inside the kernel
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # the kernel's garbage is freed by reference counting; keep the
        # collector from charging the program's young objects to it
        collecting = gc.isenabled()
        gc.disable()
        try:
            start, cpu = time.perf_counter(), time.process_time()
            kernel()
            cpu = time.process_time() - cpu
        finally:
            if collecting:
                gc.enable()
        self.times.append(start)
        self.speeds.append(REFERENCE_S / cpu)
        self.spent += cpu

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        kernel()    # the first run is slow; sample a warm kernel
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """Run ``fn(*args)``: (result, start, end, CPU time less kernel runs)."""
        spent = self.spent
        start, cpu = time.perf_counter(), time.process_time()
        result = fn(*args)
        cpu = time.process_time() - cpu
        return result, start, time.perf_counter(), cpu - (self.spent - spent)

    def at_reference(self, start: float, end: float, busy: float) -> float:
        """``busy`` seconds spent in [start, end], at reference speed."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if lo == hi:    # no sample near: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        speeds = self.speeds[lo:hi]
        return busy * sum(speeds) / len(speeds)
