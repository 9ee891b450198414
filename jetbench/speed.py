"""Host-speed correction for timings taken on a shared machine.

On a shared 2-vCPU virtual machine the speed of the vCPU drifts by up to 2x
within seconds as other tenants load the host, and the drift shows in CPU
time as well as wall time.  Medians of raw wall times over 30-second runs
then differ by 20-30 % from run to run, which would hide any change the
benchmark exists to show.

`SpeedProbe.time` therefore runs a fixed reference loop (code that is not
finjet's, so no change to finjet moves it) twenty times just before the timed
call and, from a SIGALRM timer, every 10 ms while it runs.  Each probe runs
the loop once to bring it into cache and times a second run in thread CPU
time, so it measures how fast the vCPU executes Python rather than whether
the thread was scheduled or what the timed call left in the cache.  The call's wall time, less
the probes' own time, is scaled by the mean of NOMINAL_S / probe time: the
result is the time the call would take at the speed where one probe takes
NOMINAL_S, a constant.  On this host it brought the spread of 30-second
medians from about 28 % down to 2-3 %.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable

NOMINAL_S = 7.0e-5  # warm probe CPU time on an uncontended vCPU of the reference sandbox
INTERVAL_S = 0.01
PRE_PROBES = 20


def reference_loop() -> int:
    """Fixed pure-Python work: build and scan a 200-entry dict of tuple keys."""
    table = {}
    for i in range(200):
        key = ("p", i, str(i))
        table[key] = hash(key) ^ i
    return sum(v & 7 for v in table.values())


class SpeedProbe:
    """Times calls and corrects them for the vCPU speed measured around them.

    Use as a context manager: the timer runs between `__enter__` and
    `__exit__`, which restores the previous SIGALRM handler.
    """

    def __init__(self):
        self._samples: list[tuple[float, float]] = []  # (wall, CPU) seconds per probe
        self._busy = False
        self._previous = None

    def _probe(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            w0 = time.perf_counter()
            reference_loop()  # untimed: bring the loop's code and data into cache
            c0 = time.thread_time()
            reference_loop()
            c1 = time.thread_time()
            self._samples.append((time.perf_counter() - w0, c1 - c0))
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn: Callable, *args, **kwargs) -> tuple[float, float, object]:
        """Call fn; return (raw wall seconds, speed-corrected seconds, its result)."""
        self._samples.clear()
        for _ in range(PRE_PROBES):
            self._probe()
        pre = len(self._samples)
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        samples = list(self._samples)
        net = wall - sum(w for w, _ in samples[pre:])
        rate = statistics.fmean(NOMINAL_S / max(c, 1e-9) for _, c in samples)
        return wall, net * rate, result
