"""Synchronization points: the paper's flag/counter words.

A synchronization point is one word of shared data memory (Sec. III-B,
Fig. 3): the most significant bits hold 1-bit *identification flags*,
one per core, and the least significant bits form an *up/down counter*.

The three synchronization instructions modify a point as follows:

* ``SNOP(#lit)``  - set the issuing core's flag, leave the counter;
* ``SINC(#lit)``  - set the issuing core's flag and increment the counter;
* ``SDEC(#lit)``  - decrement the counter, leave the flags.

When several cores issue synchronization instructions to the *same*
point in the same cycle, the synchronizer merges them "to perform a
single and consistent memory modification": the flag updates are OR-ed
and the counter deltas are summed, and the memory location is written
once.  :func:`merge_requests` implements exactly that reduction; it is
commutative and associative by construction (property-tested).

A point *fires* when, after applying a batch, its counter is zero while
at least one flag is set.  Firing wakes every flagged core and clears
the flags (the counter is already zero).  This single rule covers both
protocols of the paper:

* **producer-consumer** (Fig. 3-a): producers ``SINC`` when they begin
  producing and ``SDEC`` when their data is ready; consumers ``SNOP`` +
  ``SLEEP``.  The last ``SDEC`` zeroes the counter and wakes everybody
  registered in the flags.
* **lock-step recovery** (Fig. 3-b): cores entering a data-dependent
  branch ``SINC``; at the join they ``SDEC`` + ``SLEEP``.  When the last
  participant leaves, the counter reaches zero and all flagged cores
  resume together, in lock-step.

A registration that leaves the counter at zero (e.g. a consumer that
``SNOP``-s before any producer has registered) fires immediately: the
point is already satisfied, so the core's next ``SLEEP`` falls through
(see :class:`repro.core.events.EventLatch`).  This removes the
register-then-sleep race without requiring atomicity beyond the
synchronizer's own merge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class SyncProtocolError(Exception):
    """A synchronization point was driven outside its legal envelope."""


class SyncOp(enum.Enum):
    """The three point-modifying synchronization operations."""

    SINC = "sinc"
    SDEC = "sdec"
    SNOP = "snop"


@dataclass(frozen=True)
class SyncRequest:
    """One synchronization instruction issued by one core.

    Attributes:
        core: issuing core identifier.
        op: which of SINC/SDEC/SNOP was issued.
        point: synchronization point index (the ``#lit`` literal).
    """

    core: int
    op: SyncOp
    point: int


@dataclass(frozen=True)
class MergedUpdate:
    """The single consistent modification for one point and one cycle.

    Attributes:
        flag_mask: OR of the identification flags to set.
        counter_delta: net counter change (#SINC - #SDEC).
        requests: how many individual requests were merged.
    """

    flag_mask: int
    counter_delta: int
    requests: int

    @property
    def merged_away(self) -> int:
        """Memory modifications avoided thanks to merging."""
        return max(0, self.requests - 1)


class SyncPointLayout:
    """Bit layout of a synchronization point word.

    With ``num_cores`` cores and ``word_bits``-bit words, the top
    ``num_cores`` bits are flags (bit ``word_bits - 1 - c`` is core
    ``c``'s flag, so core 0 owns the MSB as in Fig. 3) and the low
    ``word_bits - num_cores`` bits are the counter.
    """

    def __init__(self, num_cores: int = 8, word_bits: int = 16) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        if num_cores >= word_bits:
            raise ValueError(
                f"{num_cores} flag bits leave no counter in a "
                f"{word_bits}-bit word")
        self.num_cores = num_cores
        self.word_bits = word_bits
        self.counter_bits = word_bits - num_cores
        self.counter_mask = (1 << self.counter_bits) - 1
        self.max_counter = self.counter_mask
        self._flag_bits = tuple(1 << (word_bits - 1 - core)
                                for core in range(num_cores))
        self._flags_mask = sum(self._flag_bits)

    def flag_bit(self, core: int) -> int:
        """Mask with only ``core``'s identification flag set."""
        if not 0 <= core < self.num_cores:
            raise ValueError(
                f"core {core} out of range [0, {self.num_cores})")
        return self._flag_bits[core]

    def flags_field_mask(self) -> int:
        """Mask covering the whole flags field."""
        return self._flags_mask

    def encode(self, flags: int, counter: int) -> int:
        """Pack a (flags, counter) pair into a memory word."""
        if counter < 0 or counter > self.max_counter:
            raise SyncProtocolError(
                f"counter {counter} outside [0, {self.max_counter}]")
        if flags & ~self.flags_field_mask():
            raise ValueError("flag bits outside the flags field")
        return flags | counter

    def decode(self, word: int) -> tuple[int, int]:
        """Unpack a memory word into (flags, counter)."""
        return word & self.flags_field_mask(), word & self.counter_mask

    def cores_of(self, flags: int) -> tuple[int, ...]:
        """Core ids whose identification flags are set in ``flags``."""
        return tuple(core for core, bit in enumerate(self._flag_bits)
                     if flags & bit)


def merge_requests(layout: SyncPointLayout,
                   requests: list[SyncRequest]) -> MergedUpdate:
    """Reduce same-cycle requests for one point into a single update.

    The reduction is order-independent: OR for flags, sum for counter
    deltas.  All requests must target the same point.
    """
    if not requests:
        return MergedUpdate(flag_mask=0, counter_delta=0, requests=0)
    point = requests[0].point
    flag_mask = 0
    delta = 0
    for request in requests:
        if request.point != point:
            raise ValueError("merge_requests needs a single-point batch")
        if request.op is SyncOp.SINC:
            flag_mask |= layout.flag_bit(request.core)
            delta += 1
        elif request.op is SyncOp.SNOP:
            flag_mask |= layout.flag_bit(request.core)
        else:  # SDEC leaves the flags untouched
            delta -= 1
    return MergedUpdate(flag_mask=flag_mask, counter_delta=delta,
                        requests=len(requests))


@dataclass(frozen=True)
class FireResult:
    """Outcome of applying one merged update to a point.

    Attributes:
        fired: whether a synchronization event was generated.
        woken_cores: cores whose flags were set when the point fired.
        word: the point's word value after the update (post-clear).
    """

    fired: bool
    woken_cores: tuple[int, ...]
    word: int


class SyncPoint:
    """Mutable state of one synchronization point.

    This is a convenience wrapper for protocol-level code and tests;
    the cycle-level platform stores points directly in shared data
    memory and uses :func:`apply_update` on raw words.
    """

    def __init__(self, layout: SyncPointLayout, strict: bool = True) -> None:
        self.layout = layout
        self.strict = strict
        self.flags = 0
        self.counter = 0

    @property
    def word(self) -> int:
        """Current memory-word value of the point."""
        return self.layout.encode(self.flags, self.counter)

    def load(self, word: int) -> None:
        """Overwrite the point from a raw memory word."""
        self.flags, self.counter = self.layout.decode(word)

    def apply(self, update: MergedUpdate) -> FireResult:
        """Apply a merged update; fire and clear flags if satisfied."""
        word, result = apply_update(self.layout, self.word, update,
                                    strict=self.strict)
        self.load(word)
        return result

    def registered_cores(self) -> tuple[int, ...]:
        """Cores currently registered (flagged) at this point."""
        return self.layout.cores_of(self.flags)


def apply_update(layout: SyncPointLayout, word: int, update: MergedUpdate,
                 strict: bool = True) -> tuple[int, FireResult]:
    """Apply a merged update to a raw point word.

    Returns the new word and the :class:`FireResult`.  In ``strict``
    mode, counter underflow/overflow raises
    :class:`SyncProtocolError`; otherwise the counter saturates, which
    mirrors a hardware implementation that simply clamps.
    """
    flags, counter = layout.decode(word)
    flags |= update.flag_mask
    counter += update.counter_delta
    if counter < 0:
        if strict:
            raise SyncProtocolError(
                "sync point counter underflow (more SDECs than SINCs)")
        counter = 0
    if counter > layout.max_counter:
        if strict:
            raise SyncProtocolError(
                f"sync point counter overflow (> {layout.max_counter})")
        counter = layout.max_counter

    fired = counter == 0 and flags != 0 and update.requests > 0
    woken: tuple[int, ...] = ()
    if fired:
        woken = layout.cores_of(flags)
        flags = 0
    new_word = layout.encode(flags, counter)
    return new_word, FireResult(fired=fired, woken_cores=woken,
                                word=new_word)
