"""The synchronizer unit — the paper's central hardware contribution.

The synchronizer (Sec. III-A) is a lightweight block that:

* collects the synchronization instructions issued by all cores in a
  cycle, **merges** same-point requests into "a single and consistent
  memory modification", and applies them to the synchronization points
  stored in shared data memory;
* watches for points whose counter reaches zero and generates
  *synchronization events* toward every core registered in the flags;
* **clock-gates** cores that execute ``SLEEP`` and resumes them on the
  next synchronization event (point firing or subscribed interrupt);
* forwards peripheral interrupts (e.g. ADC data-ready) to cores that
  subscribed through a memory-mapped register.

The class is deliberately independent of the cycle-level platform: it
only needs a word-storage object for the shared-memory-resident points,
so the same unit drives both the cycle-accurate simulator
(:mod:`repro.hw.system`) and the system-level behavioral simulator
(:mod:`repro.sysc.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from .events import EventLatch, InterruptController
from .syncpoint import (
    MergedUpdate,
    SyncOp,
    SyncPointLayout,
    SyncRequest,
    apply_update,
    merge_requests,
)


class WordStorage(Protocol):
    """Minimal word-addressed storage interface for sync points."""

    def read(self, address: int) -> int:
        """Return the 16-bit word at ``address``."""
        ...  # pragma: no cover - protocol

    def write(self, address: int, value: int) -> None:
        """Store a 16-bit word at ``address``."""
        ...  # pragma: no cover - protocol


class DictStorage:
    """Dictionary-backed :class:`WordStorage` (zero-initialised)."""

    def __init__(self) -> None:
        self.words: dict[int, int] = {}
        self.reads = 0
        self.writes = 0

    def read(self, address: int) -> int:
        self.reads += 1
        return self.words.get(address, 0)

    def write(self, address: int, value: int) -> None:
        self.writes += 1
        self.words[address] = value & 0xFFFF


@dataclass
class SynchronizerStats:
    """Activity counters used by the power model and Table I.

    Attributes:
        op_counts: issued synchronization instructions per kind
            (including ``sleep``).
        merged_writes_saved: memory modifications avoided because
            same-cycle same-point requests were merged.
        point_fires: number of synchronization events generated by
            counter zero-crossings.
        wakes: cores resumed from clock-gating (by points or IRQs).
        fall_through_sleeps: ``SLEEP`` executions absorbed by a pending
            event latch (the SDEC-then-SLEEP race resolution).
        gate_requests: ``SLEEP`` executions that did gate the core.
    """

    op_counts: dict[str, int] = field(
        default_factory=lambda: {"sinc": 0, "sdec": 0, "snop": 0,
                                 "sleep": 0})
    merged_writes_saved: int = 0
    point_fires: int = 0
    wakes: int = 0
    fall_through_sleeps: int = 0
    gate_requests: int = 0

    @property
    def total_sync_instructions(self) -> int:
        """All synchronization-ISE executions (Table I run-time numerator)."""
        return sum(self.op_counts.values())


class Synchronizer:
    """Cycle-synchronous synchronizer unit.

    Typical use within one simulated cycle::

        sync.submit(core, SyncOp.SINC, point)   # from executing cores
        gated = sync.sleep(core)                # SLEEP semantics
        woken = sync.end_cycle()                # merge, fire, wake

    Args:
        num_cores: number of cores attached to the unit.
        num_points: number of synchronization points served.
        point_base: shared-memory address of point 0.
        storage: word storage holding the points (defaults to an
            internal :class:`DictStorage`).
        layout: flag/counter packing (defaults to ``num_cores`` flags in
            a 16-bit word).
        strict: raise :class:`~repro.core.syncpoint.SyncProtocolError`
            on counter underflow/overflow instead of saturating.
        on_wake: optional callback invoked with a core id whenever that
            core is resumed from clock-gating.
    """

    def __init__(self, num_cores: int, num_points: int = 64,
                 point_base: int = 0, storage: WordStorage | None = None,
                 layout: SyncPointLayout | None = None, strict: bool = True,
                 on_wake: Callable[[int], None] | None = None) -> None:
        self.num_cores = num_cores
        self.num_points = num_points
        self.point_base = point_base
        self.layout = layout or SyncPointLayout(num_cores=num_cores)
        self.storage: WordStorage = storage if storage is not None \
            else DictStorage()
        self.strict = strict
        self.on_wake = on_wake
        self.stats = SynchronizerStats()
        self._latches = [EventLatch() for _ in range(num_cores)]
        self._gated = [False] * num_cores
        self.interrupts = InterruptController(num_cores=num_cores)
        self._pending: list[SyncRequest] = []

    # ------------------------------------------------------------------
    # Core-side interface (instruction semantics)
    # ------------------------------------------------------------------

    def submit(self, core: int, op: SyncOp, point: int) -> None:
        """Record a SINC/SDEC/SNOP issued by ``core`` this cycle."""
        self._check_core(core)
        if not 0 <= point < self.num_points:
            raise ValueError(
                f"sync point {point} out of range [0, {self.num_points})")
        self.stats.op_counts[op.value] += 1
        self._pending.append(SyncRequest(core=core, op=op, point=point))

    def sleep(self, core: int) -> bool:
        """Apply ``SLEEP`` semantics; True if the core is now gated.

        A pending event latch is consumed instead of gating, which is
        how the hardware absorbs an event that arrived between the
        core's last synchronization instruction and its ``SLEEP``.
        """
        self._check_core(core)
        self.stats.op_counts["sleep"] += 1
        if self._latches[core].consume():
            self.stats.fall_through_sleeps += 1
            return False
        self._gated[core] = True
        self.stats.gate_requests += 1
        return True

    def subscribe(self, core: int, mask: int) -> None:
        """Write ``core``'s interrupt subscription register."""
        self.interrupts.subscribe(core, mask)

    def subscription(self, core: int) -> int:
        """Read ``core``'s interrupt subscription register."""
        return self.interrupts.subscription(core)

    # ------------------------------------------------------------------
    # Peripheral-side interface
    # ------------------------------------------------------------------

    def raise_interrupt(self, line: int) -> None:
        """Signal a peripheral interrupt line (e.g. ADC data-ready)."""
        self.interrupts.raise_line(line)

    # ------------------------------------------------------------------
    # Cycle boundary
    # ------------------------------------------------------------------

    def end_cycle(self) -> tuple[int, ...]:
        """Merge and apply this cycle's requests; returns resumed cores.

        Order of operations mirrors the hardware: (1) per-point merge
        and single memory modification, (2) zero-crossing detection and
        event generation, (3) interrupt forwarding.  Cores returned
        here were clock-gated and must resume on the next cycle.
        """
        if not self._pending and not self.interrupts.pending_lines:
            return ()
        woken: list[int] = []
        by_point: dict[int, list[SyncRequest]] = {}
        for request in self._pending:
            by_point.setdefault(request.point, []).append(request)
        self._pending.clear()

        for point in sorted(by_point):
            update = merge_requests(self.layout, by_point[point])
            self.stats.merged_writes_saved += update.merged_away
            self._apply(point, update, woken)

        for core in self.interrupts.collect():
            self._deliver_event(core, woken)

        if woken:
            self.stats.wakes += len(woken)
            if self.on_wake is not None:
                for core in woken:
                    self.on_wake(core)
        return tuple(woken)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def is_gated(self, core: int) -> bool:
        """True if ``core`` is currently clock-gated."""
        self._check_core(core)
        return self._gated[core]

    def has_pending_event(self, core: int) -> bool:
        """True if ``core``'s event latch is set."""
        self._check_core(core)
        return self._latches[core].pending

    def point_address(self, point: int) -> int:
        """Shared-memory address of synchronization point ``point``."""
        return self.point_base + point

    def point_word(self, point: int) -> int:
        """Raw word value of a point (as visible to ``lw``)."""
        return self.storage.read(self.point_address(point))

    def point_state(self, point: int) -> tuple[int, int]:
        """(flags, counter) of a point."""
        return self.layout.decode(self.point_word(point))

    def registered_cores(self, point: int) -> tuple[int, ...]:
        """Cores whose identification flag is set at ``point``."""
        flags, _ = self.point_state(point)
        return self.layout.cores_of(flags)

    def reset(self) -> None:
        """Power-on reset: clear points, latches, gating and stats."""
        for point in range(self.num_points):
            self.storage.write(self.point_address(point), 0)
        for latch in self._latches:
            latch.reset()
        self._gated = [False] * self.num_cores
        self._pending.clear()
        self.stats = SynchronizerStats()
        self.interrupts = InterruptController(num_cores=self.num_cores)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _apply(self, point: int, update: MergedUpdate,
               woken: list[int]) -> None:
        address = self.point_address(point)
        word = self.storage.read(address)
        new_word, result = apply_update(self.layout, word, update,
                                        strict=self.strict)
        self.storage.write(address, new_word)
        if result.fired:
            self.stats.point_fires += 1
            for core in result.woken_cores:
                self._deliver_event(core, woken)

    def _deliver_event(self, core: int, woken: list[int]) -> None:
        """Wake a gated core, or latch the event for a running one."""
        if self._gated[core]:
            self._gated[core] = False
            woken.append(core)
        else:
            self._latches[core].set()

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core {core} out of range")
