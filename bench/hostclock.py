"""Host-speed probe: how fast this machine runs a fixed piece of work right now.

On a shared host, neighbours slow execution itself by 20-40 % for seconds to
minutes at a time, and that swing is wider than any bound a benchmark can
hold a change to.  ``HostClock`` measures it while a phase runs: every
``PERIOD_S`` seconds a SIGALRM handler times a fixed probe in two parts, an
interpreter loop and NumPy calls (small arrays and a 256 KiB stream), about
0.7 ms in all.  A probe reads as the geometric mean of the two parts' times,
because zygdist's calls slow down with the host like one part or the other
or in between.  ``scale()`` is ``NOMINAL_S`` over the median reading, and
multiplying measured seconds by it gives seconds at the reference speed, the
speed at which the probe reads ``NOMINAL_S``.  ``scaled()`` applies the scale of the probes
taken during one timed call, so a speed change between calls is followed.
The probe is fixed code of the benchmark, so a change to zygdist moves the
measured seconds and not the scale.

The handler runs between bytecodes of whatever the process is doing; its own
time accumulates in ``spent``, which callers subtract from their timings.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
MIN_WINDOW = 3  # fewer probes in a call than this: use every probe so far
NOMINAL_S = 0.0002  # about the median reading on the host the benchmark was tuned on

_STREAM = np.arange(1 << 15, dtype=np.float64)


def probe() -> float:
    """Time the fixed work whose duration tracks the host's speed: the
    geometric mean of its interpreter part and its NumPy part, in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(300):
        total += len(str(i))
    middle = time.perf_counter()
    small = np.arange(32, dtype=np.float64)
    for _ in range(20):
        small = np.cumsum(small) * 0.5
    stream = _STREAM
    for _ in range(4):
        stream = np.sqrt(stream * stream + 1.0)
    end = time.perf_counter()
    return math.sqrt((middle - start) * (end - middle))


class HostClock:
    """Samples ``probe()`` on a wall-clock interval timer while started."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def start(self) -> "HostClock":
        for _ in range(MIN_WINDOW):
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "HostClock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def scale(self, first: int = 0) -> float:
        """Reference seconds per measured second, from the probes since the
        ``first``-th (from all of them if there are too few)."""
        window = self.samples[first:]
        return NOMINAL_S / statistics.median(window if len(window) >= MIN_WINDOW else self.samples)

    def scaled(self, seconds: float, first: int) -> float:
        """``seconds`` measured since probe ``first``, at the reference speed."""
        return seconds * self.scale(first)

    def summary(self) -> dict:
        return {
            "probe_median_s": statistics.median(self.samples),
            "probe_nominal_s": NOMINAL_S,
            "samples": len(self.samples),
            "scale": self.scale(),
        }
