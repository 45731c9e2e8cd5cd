"""Host-speed pacing: the run timed against a fixed yardstick.

The benchmark's shared host changes speed in episodes (other tenants):
on the 2-vCPU Xeon reference host the same pass runs up to 1.8x slower
for seconds to tens of seconds at a time, so raw host seconds spread
by 20-30 % between runs.  The slow-downs come and go per vCPU.

A :class:`Pacer` cuts the run into *segments* of about a tenth of a
second and takes a *mark* at each cut: the time of :func:`yardstick`
(a fixed pure-Python loop, not code under test).  A segment's host
time scaled by :data:`REF_S` over the mean of the marks at its two
ends gives its *reference seconds*.  Cuts fall after each entry call
and, inside a long one, after the first ``repro.sysc`` ``simulate``
call or streaming checkpoint write of the main process that ends
:data:`SEGMENT_S` or more after the last cut (:func:`install`).

Where the work runs decides the mark.  Work in the main process runs
on one vCPU, and :func:`mark_here` times the yardstick where the main
process is scheduled.  Work in pool workers spreads over every vCPU,
and :func:`mark_all` times it on each CPU in turn and takes the mean.
Over repeated fleet-exact samples, marks every ~0.1 s cut the
per-sample spread (stdev / mean) from 0.10 in host seconds to 0.02
with :func:`mark_here` and 0.05 with :func:`mark_all`; marks every
~0.3 s gave 0.05 and 0.06.

Reference seconds are what the call would have taken on the reference
host when quiet.  A change that makes the program faster lowers them
by the same share as it lowers host seconds; only the host's own
speed cancels out.
"""

from __future__ import annotations

import functools
import heapq
import os
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import spans

#: Iterations of one :func:`yardstick` run.
YARDSTICK_STEPS = 10_000

#: Seconds one :func:`yardstick` run takes on the quiet reference host
#: (2-vCPU Xeon VM, CPython 3); only a scale, it cancels in comparisons.
REF_S = 0.0105

#: Host seconds after which an inner call ends the current segment.
SEGMENT_S = 0.1


class _Event:
    __slots__ = ("when", "key", "value")

    def __init__(self, when: float, key: int, value: float) -> None:
        self.when = when
        self.key = key
        self.value = value

    def __lt__(self, other: "_Event") -> bool:
        return self.when < other.when


def yardstick(steps: int = YARDSTICK_STEPS) -> float:
    """A fixed event-queue loop of the simulator's kind of Python.

    Objects through a heap, attribute and dict updates, float
    arithmetic; deterministic, and independent of ``repro``.
    """
    queue: list[_Event] = []
    totals: dict[int, float] = {}
    acc = 0.0
    for i in range(200):
        heapq.heappush(queue, _Event((i * 7919 % 1000) / 1000.0, i % 17,
                                     float(i)))
    for i in range(steps):
        event = heapq.heappop(queue)
        totals[event.key] = totals.get(event.key, 0.0) * 0.5 + event.value
        acc += event.value * 1e-3 + len(totals)
        event.when += 0.1 + (i % 13) * 0.01
        event.value = acc % 97.0
        heapq.heappush(queue, event)
    return acc


def mark_here() -> float:
    """:func:`yardstick` time where this process is scheduled."""
    start = time.perf_counter()
    yardstick()
    return time.perf_counter() - start


def mark_all() -> float:
    """Mean :func:`yardstick` time over the CPUs this process may use.

    Runs it pinned to each CPU in turn, then restores the affinity.
    Without affinity control it is :func:`mark_here`.
    """
    if not hasattr(os, "sched_setaffinity"):
        return mark_here()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(mark_here())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


class Pacer:
    """The ``span`` hook of an untraced run: paces each entry call.

    ``ops`` holds ``(name, host_s, ref_s)`` per entry call;
    :attr:`marks` the marks (the first one taken here unless given),
    :attr:`yardstick_s` the host time the marks after the first took,
    which the run's own wall time (and each entry call's ``host_s``)
    leaves out.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 measure: Callable[[], float] = mark_here,
                 segment_s: float = SEGMENT_S,
                 first_mark: float | None = None) -> None:
        self.clock = clock
        self.measure = measure
        self.segment_s = segment_s
        self.pid = os.getpid()
        self.ops: list[tuple[str, float, float]] = []
        self.marks = [measure() if first_mark is None else first_mark]
        self.yardstick_s = 0.0
        self._cut_t = clock()
        self._open: list[float] | None = None  # [host_s, ref_s] so far

    def _cut(self) -> None:
        """End the current segment with a mark; add it to the open call."""
        host_s = self.clock() - self._cut_t
        start = self.clock()
        self.marks.append(self.measure())
        self._cut_t = self.clock()
        self.yardstick_s += self._cut_t - start
        self._open[0] += host_s
        self._open[1] += host_s * 2 * REF_S / sum(self.marks[-2:])

    def checkpoint(self) -> None:
        """Cut here if the segment is long enough (main process only)."""
        if (self._open is not None and os.getpid() == self.pid
                and self.clock() - self._cut_t >= self.segment_s):
            self._cut()

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        self._open = [0.0, 0.0]
        self._cut_t = self.clock()
        try:
            yield
        finally:
            self._cut()
            self.ops.append((name, *self._open))
            self._open = None

    def host_speed(self) -> float:
        """Median host speed the marks saw (1 = quiet reference)."""
        return REF_S / statistics.median(self.marks)


def install(pacer: Pacer) -> spans.Patches:
    """Cut segments after ``simulate`` calls and streaming checkpoint
    writes; returns the undo handle.

    Uses the rebinding of :mod:`spans`, so call it, like
    :func:`spans.install`, after the workload's modules are imported.
    """

    def wrapper_of(fn):
        @functools.wraps(fn)
        def paced(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                pacer.checkpoint()

        return paced

    patches = spans.Patches()
    patches.rebind_function("repro.sysc.engine", "simulate", wrapper_of)
    patches.rebind_method("repro.net.streaming", "StreamingRunner._write",
                          wrapper_of)
    return patches
