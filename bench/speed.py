"""Host-speed probe: a fixed kernel sampled while the measured code runs.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes, and CPU time drifts with wall time, so a raw pass
time mixes the program's cost with the host's state.  While a span of
work runs, a SIGALRM handler runs a small fixed kernel every INTERVAL_S
seconds and times it.  The kernel does not use cyclomod, so a change to
the program never moves it.

For each measured span, ``own_s`` is its wall time minus the time spent
in the probe.  ``norm_s`` is own_s times the mean of NOMINAL_KERNEL_S / k
over the kernel times k sampled during the span.  The samples are evenly
spaced in wall time, so that mean is the host's average speed relative to
nominal over the span, and norm_s is the span's time on a host where the
kernel takes NOMINAL_KERNEL_S.  (A median of k would misjudge a span in
which the host switched speed part way.)
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Any, NamedTuple

INTERVAL_S = 0.02
NOMINAL_KERNEL_S = 0.0005   # the kernel's typical time on a 2-core Xeon VM
WARM_SAMPLES = 9


def kernel():
    """Integer and Fraction arithmetic, about half a millisecond."""
    acc = 0
    for i in range(2000):
        acc += (i * 7919) % 13
    x = Fraction(1, 3)
    for i in range(1, 40):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    return acc, x


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Measured(NamedTuple):
    result: Any
    own_s: float        # wall time minus the probe's own time
    norm_s: float       # own_s on a host where the kernel takes NOMINAL_KERNEL_S
    elapsed_s: float    # wall time, probe included
    kernel_s: tuple     # the kernel times sampled during the span


class SpeedProbe:
    """Context manager sampling the kernel from a timer signal.

    Use ``measure(fn)`` inside the context; a span too short to hold a
    sample reuses the speed of the span before it.
    """

    def __init__(self):
        self.samples = []           # (start, seconds) of each kernel run
        self.speed = None           # mean NOMINAL_KERNEL_S / k of the last span
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self):
        self.speed = statistics.fmean(NOMINAL_KERNEL_S / time_kernel() for _ in range(WARM_SAMPLES))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, fn) -> Measured:
        """Run fn() and time it."""
        self.samples = []
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
        # a handler runs to completion before the main code resumes, so a
        # kernel run that started inside [t0, t1) also ended inside it
        inside = tuple(k for start, k in self.samples if t0 <= start < t1)
        own = t1 - t0 - sum(inside)
        if inside:
            self.speed = statistics.fmean(NOMINAL_KERNEL_S / k for k in inside)
        return Measured(result, own, own * self.speed, t1 - t0, inside)
