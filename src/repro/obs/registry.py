"""The metrics registry and the module-wide no-op collection API.

Instrumentation in hot paths goes through the module-level functions
(:func:`add`, :func:`gauge`, :func:`observe`, :func:`span`).  By
default no registry is active and every call is a cheap early return —
no collector state is allocated until a run opts in through
:func:`collecting` (or :func:`activate`), which is what the
``--metrics`` CLI flag does.

Three metric kinds exist, split by determinism contract:

* **counters** — integer event counts merged by addition.  Integer
  addition is order-independent, so counters are byte-deterministic
  across PYTHONHASHSEED values, worker counts and resume points; the
  determinism gates compare them.
* **gauges** — float high-water marks merged by ``max`` (commutative,
  so still deterministic for deterministic inputs).
* **timings** — wall-clock span aggregates ``(count, total_s,
  max_s)``.  Inherently machine-dependent; excluded from every
  determinism comparison.

Names are dotted paths (``net.stream.wave``, ``sweep.cache.hit``) so
renderers and diff tools can group by subsystem.

Forked workers collect into their own registry and ship a
:meth:`MetricsRegistry.snapshot` back to the caller, whose own share
records straight into its registry and which merges the snapshots in
child order (see :func:`repro.parallel.pool_map`).
:func:`suspended` masks collection around memoised computation whose
execution count depends on process-local cache state — call sites
record a deterministic *request* counter instead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class MetricsRegistry:
    """One run's collected counters, gauges and timing aggregates."""

    __slots__ = ("counters", "gauges", "timings")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        # name -> [count, total_s, max_s]; lists keep the hot path to
        # two index assignments instead of a dataclass rebuild.
        self.timings: dict[str, list[float]] = {}

    def add(self, name: str, amount: int = 1) -> None:
        """Increment a counter (integers only: order-independent)."""
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def gauge(self, name: str, value: float) -> None:
        """Raise a high-water-mark gauge (merged by ``max``)."""
        value = float(value)
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Fold one wall-clock span into a timing aggregate."""
        entry = self.timings.get(name)
        if entry is None:
            self.timings[name] = [1, seconds, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds
            if seconds > entry[2]:
                entry[2] = seconds

    def snapshot(self) -> dict:
        """JSON-ready copy of everything collected so far."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timings": {
                name: {
                    "count": int(entry[0]),
                    "total_s": entry[1],
                    "max_s": entry[2],
                }
                for name, entry in self.timings.items()
            },
        }

    def deterministic(self) -> dict:
        """The deterministic sections only (counters + gauges)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (or :meth:`deterministic`) in.

        Counters add, gauges max-merge, timings recombine exactly —
        all commutative, so merge order never changes the result.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.add(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, entry in snapshot.get("timings", {}).items():
            mine = self.timings.get(name)
            if mine is None:
                self.timings[name] = [
                    int(entry["count"]),
                    float(entry["total_s"]),
                    float(entry["max_s"]),
                ]
            else:
                mine[0] += int(entry["count"])
                mine[1] += float(entry["total_s"])
                if entry["max_s"] > mine[2]:
                    mine[2] = float(entry["max_s"])


def counter_delta(base: dict, current: dict) -> dict:
    """Deterministic-section delta ``current - base`` (for resume).

    Counter keys that did not grow are dropped; gauges pass through
    unchanged (max-merge makes re-merging them idempotent).  The
    streaming checkpoint persists this delta so a resumed run can
    reconstruct the counters a cold run would have produced.
    """
    counters = {}
    base_counters = base.get("counters", {})
    for name, value in current.get("counters", {}).items():
        diff = value - base_counters.get(name, 0)
        if diff:
            counters[name] = diff
    return {
        "counters": counters,
        "gauges": dict(current.get("gauges", {})),
    }


#: The active registry; ``None`` (the default) makes every module-level
#: recording call a no-op.
_active: MetricsRegistry | None = None


def active() -> MetricsRegistry | None:
    """The currently active registry, or ``None`` when collection is off."""
    return _active


def is_active() -> bool:
    """Whether a registry is currently collecting."""
    return _active is not None


def activate(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (and return) the active registry.

    Replaces any previously active registry — which is exactly what a
    forked worker must do, since it inherits the parent's registry and
    must collect into its own.
    """
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def deactivate() -> None:
    """Turn collection off (back to the zero-cost default)."""
    global _active
    _active = None


@contextmanager
def collecting(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Activate a registry for the duration of the block."""
    global _active
    previous = _active
    current = activate(registry)
    try:
        yield current
    finally:
        _active = previous


@contextmanager
def suspended() -> Iterator[None]:
    """Mask collection for the duration of the block.

    Used around memoised computation (``lru_cache`` bodies) whose
    execution count depends on per-process cache state: the inner
    events would differ across worker counts and resume points, so the
    call site records a deterministic request counter instead and the
    body records nothing.
    """
    global _active
    previous = _active
    _active = None
    try:
        yield
    finally:
        _active = previous


def add(name: str, amount: int = 1) -> None:
    """Increment a counter on the active registry (no-op when off)."""
    if _active is not None:
        _active.add(name, amount)


def gauge(name: str, value: float) -> None:
    """Raise a gauge on the active registry (no-op when off)."""
    if _active is not None:
        _active.gauge(name, value)


def observe(name: str, seconds: float) -> None:
    """Record one span duration on the active registry (no-op when off)."""
    if _active is not None:
        _active.observe(name, seconds)


class Span:
    """One wall-clock span, usable as a context manager or manually.

    The measured :attr:`elapsed_s` is always computed (several result
    dataclasses report it), but it is only *recorded* into the active
    registry's timings — never when collection is off.

    Usage::

        with obs.span("sweep.point"):
            ...                      # context-manager form

        span = obs.span("net.fleet.run").start()
        ...
        elapsed = span.stop()        # manual form
    """

    __slots__ = ("name", "elapsed_s", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self.elapsed_s = 0.0
        self._start: float | None = None

    def start(self) -> "Span":
        """Begin timing; returns self for chaining."""
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        """End timing, record into the active registry, return elapsed."""
        if self._start is None:
            raise RuntimeError(f"span {self.name!r} was never started")
        self.elapsed_s = time.perf_counter() - self._start
        self._start = None
        observe(self.name, self.elapsed_s)
        return self.elapsed_s

    def __enter__(self) -> "Span":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def span(name: str) -> Span:
    """A new (not yet started) :class:`Span`."""
    return Span(name)
