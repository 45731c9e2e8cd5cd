"""The synchronizer unit — the paper's central hardware contribution.

A synchronization point is one 16-bit word of shared data memory (Sec.
III-B, Fig. 3): the most significant bits hold 1-bit *identification
flags*, one per core, and the least significant bits form an *up/down
counter*.  The three synchronization instructions modify a point:

* ``SNOP(#lit)`` sets the issuing core's flag and leaves the counter;
* ``SINC(#lit)`` sets the issuing core's flag and increments the counter;
* ``SDEC(#lit)`` decrements the counter and leaves the flags.

The synchronizer (Sec. III-A) is a lightweight block that:

* collects the synchronization instructions issued by all cores in a
  cycle and **merges** same-point requests into "a single and
  consistent memory modification": flags are OR-ed, counter deltas
  summed, and each touched point is read and written once;
* **fires** a point whose counter is zero after the update while at
  least one flag is set, generating a *synchronization event* toward
  every flagged core and clearing the flags;
* **clock-gates** cores that execute ``SLEEP`` and resumes them on the
  next synchronization event;
* forwards peripheral interrupts (e.g. ADC data-ready) to the cores
  that subscribed through a memory-mapped register.

The fire rule covers both protocols of the paper.  In a
producer-consumer exchange (Fig. 3-a) producers ``SINC`` when they
begin and ``SDEC`` when their data is ready, and consumers ``SNOP`` +
``SLEEP``: the last ``SDEC`` wakes everybody registered.  In lock-step
recovery (Fig. 3-b) cores entering a data-dependent branch ``SINC`` and
at the join ``SDEC`` + ``SLEEP``: the last to leave resumes them all
together.  A registration that leaves the counter at zero (a consumer
that ``SNOP``-s after the data is ready) fires at once.

Each core owns a one-slot event latch.  An event toward a running core
sets its latch, and that core's next ``SLEEP`` consumes the latch
instead of gating.  This closes the race in which the last core of a
lock-step region fires the event toward itself with ``SDEC`` and only
then executes ``SLEEP``.

The unit needs only a word storage (``read(address)`` and
``write(address, value)``) for the points, so it runs on its own over
a :class:`DictStorage` or inside the cycle-level platform
(:mod:`repro.hw.system`), which stores the points in shared DM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class SyncProtocolError(Exception):
    """A synchronization point's counter underflowed or overflowed."""


class SyncOp(enum.Enum):
    """The three point-modifying synchronization operations."""

    SINC = "sinc"
    SDEC = "sdec"
    SNOP = "snop"


# Members read once: an enum class attribute costs a metaclass lookup.
_SINC, _SDEC = SyncOp.SINC, SyncOp.SDEC


class SyncPointLayout:
    """Bit layout of a 16-bit synchronization point word.

    With ``num_cores`` cores the top ``num_cores`` bits are flags (bit
    ``15 - c`` is core ``c``'s flag, so core 0 owns the MSB as in Fig.
    3) and the low ``16 - num_cores`` bits are the counter.
    """

    def __init__(self, num_cores: int = 8) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        if num_cores >= 16:
            raise ValueError(
                f"{num_cores} flag bits leave no counter in a 16-bit word")
        self.num_cores = num_cores
        self.counter_mask = self.max_counter = (1 << (16 - num_cores)) - 1
        self.flags_mask = 0xFFFF ^ self.counter_mask
        self._flag_bits = tuple(1 << (15 - core) for core in range(num_cores))

    def encode(self, flags: int, counter: int) -> int:
        """Pack a (flags, counter) pair into a memory word."""
        if not 0 <= counter <= self.max_counter:
            raise SyncProtocolError(
                f"counter {counter} outside [0, {self.max_counter}]")
        if flags & ~self.flags_mask:
            raise ValueError("flag bits outside the flags field")
        return flags | counter

    def decode(self, word: int) -> tuple[int, int]:
        """Unpack a memory word into (flags, counter)."""
        return word & self.flags_mask, word & self.counter_mask

    def cores_of(self, flags: int) -> tuple[int, ...]:
        """Core ids whose identification flags are set in ``flags``."""
        return tuple(core for core, bit in enumerate(self._flag_bits)
                     if flags & bit)


class DictStorage:
    """Dictionary-backed word storage for the points (zero-initialised)."""

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


class InterruptController:
    """Interrupt subscriptions and the lines raised this cycle.

    Subscription is a per-core bitmask written through the memory-mapped
    ``REG_INT_SUBSCRIBE`` register; it is sticky, so a streaming
    consumer is woken for every new sample until it unsubscribes.
    ``pending_lines`` is the bitmask of lines raised since the last
    :meth:`collect`.
    """

    def __init__(self, num_cores: int, num_lines: int = 16) -> None:
        self.num_cores = num_cores
        self.num_lines = num_lines
        self.pending_lines = 0
        self._subscriptions = [0] * num_cores

    def subscribe(self, core: int, mask: int) -> None:
        """Set ``core``'s subscription bitmask (overwrites)."""
        self._check_core(core)
        self._subscriptions[core] = mask & ((1 << self.num_lines) - 1)

    def subscription(self, core: int) -> int:
        """Current subscription bitmask of ``core``."""
        self._check_core(core)
        return self._subscriptions[core]

    def raise_line(self, line: int) -> None:
        """Signal interrupt ``line`` (latched until collected)."""
        if not 0 <= line < self.num_lines:
            raise ValueError(f"interrupt line {line} out of range")
        self.pending_lines |= 1 << line

    def collect(self) -> tuple[int, ...]:
        """Cores subscribed to a pending line; clears the lines."""
        lines, self.pending_lines = self.pending_lines, 0
        if not lines:
            return ()
        return tuple(core for core in range(self.num_cores)
                     if self._subscriptions[core] & lines)

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core {core} out of range")


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
        point_base: storage address of point 0.
        storage: the word storage holding the points, any object with
            ``read(address)`` and ``write(address, value)`` (defaults
            to an internal :class:`DictStorage`).
    """

    def __init__(self, num_cores: int, num_points: int = 64,
                 point_base: int = 0, storage=None) -> None:
        self.num_cores = num_cores
        self.num_points = num_points
        self.point_base = point_base
        self.layout = SyncPointLayout(num_cores)
        self._flag_bits = self.layout._flag_bits
        self.storage = storage if storage is not None else DictStorage()
        self._clear()

    def _clear(self) -> None:
        """Clear the stats, interrupts, latches, gating and requests."""
        self.stats = SynchronizerStats()
        self.interrupts = InterruptController(self.num_cores)
        self._latched = [False] * self.num_cores
        self._gated = [False] * self.num_cores
        # Per point touched this cycle: [flag mask, counter delta,
        # requests merged].
        self._updates: dict[int, list[int]] = {}

    def reset(self) -> None:
        """Power-on reset: zero every point, then clear the unit."""
        for point in range(self.num_points):
            self.storage.write(self.point_address(point), 0)
        self._clear()

    # ------------------------------------------------------------------
    # Core-side interface (instruction semantics)
    # ------------------------------------------------------------------

    def submit(self, core: int, op: SyncOp, point: int) -> None:
        """Fold a SINC/SDEC/SNOP issued by ``core`` into its point."""
        self._check_core(core)
        if not 0 <= point < self.num_points:
            raise ValueError(
                f"sync point {point} out of range [0, {self.num_points})")
        self.stats.op_counts[op._value_] += 1  # ``value`` is a property
        update = self._updates.get(point)
        if update is None:
            update = self._updates[point] = [0, 0, 0]
        if op is _SDEC:
            update[1] -= 1
        else:
            update[0] |= self._flag_bits[core]
            if op is _SINC:
                update[1] += 1
        update[2] += 1

    def sleep(self, core: int) -> bool:
        """Apply ``SLEEP`` semantics; True if the core is now gated.

        A pending event latch is consumed instead of gating, which is
        how the hardware absorbs an event that arrived between the
        core's last synchronization instruction and its ``SLEEP``.
        """
        self._check_core(core)
        self.stats.op_counts["sleep"] += 1
        if self._latched[core]:
            self._latched[core] = False
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

    def raise_interrupt(self, line: int) -> None:
        """Signal a peripheral interrupt line (e.g. ADC data-ready)."""
        self.interrupts.raise_line(line)

    # ------------------------------------------------------------------
    # Cycle boundary
    # ------------------------------------------------------------------

    def end_cycle(self) -> tuple[int, ...]:
        """Apply this cycle's merged updates; returns resumed cores.

        Order of operations mirrors the hardware: (1) each touched
        point, in point order, is read, updated, fired and written
        once; (2) interrupts are forwarded.  Cores returned here were
        clock-gated and must resume on the next cycle.

        Raises :class:`SyncProtocolError` if a counter would leave
        ``[0, max_counter]``; that point is left unwritten.
        """
        updates = self._updates
        if not updates and not self.interrupts.pending_lines:
            return ()
        self._updates = {}
        woken: list[int] = []
        layout, storage, stats = self.layout, self.storage, self.stats
        for point in sorted(updates):
            flag_mask, delta, requests = updates[point]
            stats.merged_writes_saved += requests - 1
            address = self.point_address(point)
            word = storage.read(address)
            flags = (word & layout.flags_mask) | flag_mask
            counter = (word & layout.counter_mask) + delta
            if counter < 0:
                raise SyncProtocolError(
                    "sync point counter underflow (more SDECs than SINCs)")
            if counter > layout.max_counter:
                raise SyncProtocolError(
                    f"sync point counter overflow (> {layout.max_counter})")
            if counter == 0 and flags:
                stats.point_fires += 1
                for core in layout.cores_of(flags):
                    self._deliver(core, woken)
                flags = 0
            storage.write(address, flags | counter)

        for core in self.interrupts.collect():
            self._deliver(core, woken)

        stats.wakes += len(woken)
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
        return self._latched[core]

    def point_address(self, point: int) -> int:
        """Storage address of synchronization point ``point``."""
        return self.point_base + point

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _deliver(self, core: int, woken: list[int]) -> None:
        """Wake a gated core, or latch the event for a running one."""
        if self._gated[core]:
            self._gated[core] = False
            woken.append(core)
        else:
            self._latched[core] = True

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core {core} out of range")
