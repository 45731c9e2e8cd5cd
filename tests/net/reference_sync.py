"""Reference sync protocols and the event-loop replay.

The test oracle of :func:`repro.net.timesync.sync_replay`: stateful
protocol objects fed one event at a time, in global-time order, the
way a node's firmware would see them.  Each protocol consumes
(reference timestamp, local receive timestamp) pairs from heard
beacons and answers one query — *given my local clock reading, what
is the reference clock right now?* — and forgets everything on a
power-loss reboot (:meth:`SyncProtocol.on_reboot`), whose local epoch
no longer exists.

* :class:`NoSync` — free-running local clock.
* :class:`ReferenceBroadcastSync` — jump to the last beacon's offset.
* :class:`FtspSync` — offset and skew by least squares over a
  sliding window of beacon pairs.

Sums run left to right (what ``sum()`` does on CPython < 3.12) and
squares are ``d * d``, the arithmetic the array kernel states.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque


def sum_left(values) -> float:
    """Left-to-right float sum."""
    total = 0.0
    for value in values:
        total += value
    return total


class SyncProtocol(ABC):
    """Interface shared by all reference sync protocols."""

    #: Registry name; subclasses override.
    name = "abstract"

    @abstractmethod
    def on_beacon(self, ref_timestamp: float, rx_local: float) -> None:
        """Ingest one heard beacon."""

    @abstractmethod
    def estimate_reference(self, local: float) -> float:
        """Map a local clock reading to estimated reference time."""

    def on_reboot(self) -> None:
        """Forget state after a power-loss reset (new local epoch)."""


class NoSync(SyncProtocol):
    """Baseline: trust the local clock, ignore beacons."""

    name = "none"

    def on_beacon(self, ref_timestamp: float, rx_local: float) -> None:
        pass

    def estimate_reference(self, local: float) -> float:
        return local


class ReferenceBroadcastSync(SyncProtocol):
    """Offset-only sync against the last heard reference beacon."""

    name = "rbs"

    def __init__(self) -> None:
        self._last: tuple[float, float] | None = None  # (rx_local, ref)

    def on_beacon(self, ref_timestamp: float, rx_local: float) -> None:
        self._last = (rx_local, ref_timestamp)

    def estimate_reference(self, local: float) -> float:
        if self._last is None:
            return local
        rx_local, ref = self._last
        return ref + (local - rx_local)

    def on_reboot(self) -> None:
        self._last = None


class FtspSync(SyncProtocol):
    """Drift-compensated sync: offset + skew by linear regression."""

    name = "ftsp"

    def __init__(self, window: int = 8) -> None:
        if window < 2:
            raise ValueError("regression window must hold >= 2 pairs")
        self._pairs: deque[tuple[float, float]] = deque(maxlen=window)

    def on_beacon(self, ref_timestamp: float, rx_local: float) -> None:
        self._pairs.append((rx_local, ref_timestamp))

    def estimate_reference(self, local: float) -> float:
        n = len(self._pairs)
        if n == 0:
            return local
        if n == 1:
            rx_local, ref = self._pairs[0]
            return ref + (local - rx_local)
        x_mean = sum_left(x for x, _ in self._pairs) / n
        y_mean = sum_left(y for _, y in self._pairs) / n
        sxx = sum_left((x - x_mean) * (x - x_mean) for x, _ in self._pairs)
        if sxx == 0.0:
            rx_local, ref = self._pairs[-1]
            return ref + (local - rx_local)
        sxy = sum_left(
            (x - x_mean) * (y - y_mean) for x, y in self._pairs
        )
        slope = sxy / sxx
        return y_mean + slope * (local - x_mean)

    def on_reboot(self) -> None:
        self._pairs.clear()


#: Reference protocol classes by registry name.
PROTOCOL_CLASSES: dict[str, type[SyncProtocol]] = {
    NoSync.name: NoSync,
    ReferenceBroadcastSync.name: ReferenceBroadcastSync,
    FtspSync.name: FtspSync,
}


def make_protocol(name: str) -> SyncProtocol:
    """Instantiate a reference protocol by registry name.

    Raises:
        ValueError: unknown protocol name.
    """
    try:
        cls = PROTOCOL_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown sync protocol {name!r}; "
            f"choose from {sorted(PROTOCOL_CLASSES)}"
        ) from None
    return cls()


def replay_events(
    protocol_name: str,
    receptions,
    clock,
    sample_times: list[float],
    parent_readings: list[float],
) -> tuple[list[float], list[float]]:
    """Event-loop replay of one node: receptions and samples in order.

    ``receptions`` need ``rx_global``, ``rx_local`` and
    ``beacon.ref_timestamp``; ``clock`` needs ``resets_before(t)``
    and ``read(t)`` (a :class:`repro.net.clock.LocalClock` has both).
    Events sort by time, receptions before samples on a tie (the sort
    is stable, so tied receptions keep their list order); a change in
    the reset count reboots the protocol before the event.
    """
    protocol = make_protocol(protocol_name)
    events = [(r.rx_global, 0, r) for r in receptions]
    events += [(t, 1, i) for i, t in enumerate(sample_times)]
    events.sort(key=lambda event: (event[0], event[1]))
    errors: list[float] = []
    baselines: list[float] = []
    seen_resets = 0
    for when, kind, payload in events:
        resets = clock.resets_before(when)
        if resets != seen_resets:
            protocol.on_reboot()
            seen_resets = resets
        if kind == 0:
            protocol.on_beacon(
                payload.beacon.ref_timestamp, payload.rx_local
            )
        else:
            local = clock.read(when)
            errors.append(
                protocol.estimate_reference(local)
                - parent_readings[payload]
            )
            baselines.append(local - parent_readings[payload])
    return errors, baselines
