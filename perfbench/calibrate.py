"""A fixed reference kernel that measures how fast the host runs now.

The benchmark shares its machine with other tenants.  Their load
switches the host between a fast and a slow state (about 1.5-1.9x)
many times a minute, and sometimes holds it slow for minutes; no
amount of repetition inside one run removes that.  So every timing is
rescaled to a reference host speed: :class:`HostClock` runs this kernel
between the units of work it times (a trial, or a batch of trials)
and multiplies each unit's time by ``REFERENCE_S / kernel seconds``
sampled just before and just after it.  Sampling between units rather
than between whole sweeps keeps each unit and its samples inside the
same host state.  The kernel touches no program code, so a faster
program still reads faster.

It mixes, in about equal shares, the three kinds of work the workloads
do: interpreter-bound message handling (``congest``), a per-step loop
of small numpy calls (the array walks) and array sorts and reductions
(graph and CSR building).  Contention slows the three by different
factors (about 1.6x, 1.6x and 1.2x in one loaded spell), and equal
shares track every workload's own slowdown (1.3x-1.5x) better than
any one of them.
"""

from __future__ import annotations

import math
import os
import time
from bisect import bisect_left

import numpy as np

__all__ = ["REFERENCE_S", "Calibrator", "HostClock", "unit_seconds"]

#: Kernel seconds on the reference host (2 cores, unloaded); sets the
#: scale of every reported time.
REFERENCE_S = 0.015

#: Least time between two kernel samples in one process.
INTERVAL_S = 0.1


class Calibrator:
    """The kernel, with its inputs built once, outside the timing."""

    def __init__(self):
        self._small = np.arange(256, dtype=np.int64)
        self._big = np.random.default_rng(0).integers(0, 1 << 20,
                                                      size=33_000)

    def seconds(self) -> float:
        """Wall time of one kernel pass."""
        start = time.perf_counter()
        self._messages()
        self._steps()
        self._arrays()
        return time.perf_counter() - start

    @staticmethod
    def _messages() -> None:
        inbox: dict[int, list] = {}
        for i in range(20_000):
            batch = inbox.setdefault(i % 97, [])
            batch.append((i, "kind", i & 7))
            if len(batch) > 8:
                batch.sort(key=lambda message: message[2])
                batch.clear()

    def _steps(self) -> None:
        values = self._small.copy()
        alive = np.ones(256, dtype=bool)
        for i in range(4_000):
            lo = (i * 7) & 127
            row = values[lo:lo + 16]
            live = row[alive[row & 255]]
            pick = int(live[i % live.size]) if live.size else 0
            alive[pick & 255] = not alive[pick & 255]

    def _arrays(self) -> None:
        big = self._big
        ordered = big[np.lexsort((big, big >> 5))]
        np.bincount(ordered & 4095)
        np.cumsum(ordered)
        np.unique(ordered[:7_000])


class HostClock:
    """Kernel samples taken between and inside units of work, in one
    process.

    :meth:`tick` runs the kernel when :data:`INTERVAL_S` has passed
    since the last sample; the benchmark calls it before and after
    every unit and before selected calls inside one, so a long unit is
    rescaled piece by piece.  ``time.perf_counter`` is system-wide on
    Linux, so samples and unit times from forked workers can be
    compared in the parent.  A forked child starts with no samples of
    its own.
    """

    def __init__(self, calibrator: Calibrator | None = None,
                 interval_s: float = INTERVAL_S):
        self.calibrator = calibrator or Calibrator()
        self.interval_s = interval_s
        #: (begin, end) of each kernel pass, in time order.
        self.samples: list[tuple[float, float]] = []
        self._last = -math.inf
        self._pid = os.getpid()

    def tick(self) -> tuple[float, float] | None:
        """Take a sample if one is due; return it, or None."""
        if os.getpid() != self._pid:  # a forked worker: forget the parent's
            self.samples, self._last, self._pid = [], -math.inf, os.getpid()
        begin = time.perf_counter()
        if begin - self._last < self.interval_s:
            return None
        self.calibrator.seconds()
        self._last = end = time.perf_counter()
        self.samples.append((begin, end))
        return begin, end


def unit_seconds(samples: list[tuple[float, float]], start: float,
                 stop: float) -> tuple[float, float]:
    """A unit's ``(measured, reference)`` seconds, its samples excluded.

    ``samples`` are one process's ``(begin, end)`` kernel passes in time
    order.  The unit ``[start, stop]`` is cut at the samples taken
    inside it; each piece is rescaled by ``REFERENCE_S`` over the mean
    kernel time of the samples on either side of it (whichever exist).
    """
    begins = [begin for begin, _ in samples]
    first = bisect_left(begins, start)
    last = bisect_left(begins, stop)
    kernel = [end - begin for begin, end in samples]
    measured = reference = 0.0
    cursor = start
    left = kernel[first - 1] if first > 0 else None
    for i in range(first, last + 1):
        right = kernel[i] if i < len(samples) else None
        edge = samples[i][0] if i < last else stop
        near = [k for k in (left, right) if k is not None]
        if not near:
            raise ValueError("no host sample near the unit")
        measured += edge - cursor
        reference += (edge - cursor) * REFERENCE_S * len(near) / sum(near)
        if i < last:
            cursor, left = samples[i][1], right
    return measured, reference
