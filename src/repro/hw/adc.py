"""Multi-channel ADC peripheral with memory-mapped registers.

Sec. IV-B: "a three-channels ADC unit is interfaced to the system using
memory mapped registers located in shared DM and data-ready interrupt
lines connected to the synchronizer, which forwards them to cores."

Each channel is fed from a pre-loaded sample stream (the synthetic ECG
leads).  The ADC samples at a constant signal-domain rate; the platform
converts that rate into a clock-cycle period.  When a new sample lands:

* the channel's data register is updated,
* its data-ready status bit is set,
* its interrupt line toward the synchronizer is raised.

Reading the data register clears the ready bit (read-to-acknowledge).
If a sample arrives while the previous one is still unread the channel
records an *overrun* — the real-time-violation detector used by tests:
a correctly sized platform never overruns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass
class AdcChannelStats:
    """Per-channel activity counters.

    Attributes:
        delivered: samples written into the data register.
        reads: data-register reads by cores.
        overruns: samples that overwrote an unread predecessor.
    """

    delivered: int = 0
    reads: int = 0
    overruns: int = 0


class AdcChannel:
    """One ADC channel backed by a sample stream."""

    def __init__(self, samples: Sequence[int]) -> None:
        self._samples = samples
        self._next = 0
        self.value = 0
        self.ready = False
        self.enabled = True
        self.stats = AdcChannelStats()

    @property
    def exhausted(self) -> bool:
        """True when the backing stream has been fully delivered."""
        return self._next >= len(self._samples)

    def deliver(self) -> bool:
        """Latch the next sample; True if a sample was delivered."""
        if not self.enabled or self.exhausted:
            return False
        if self.ready:
            self.stats.overruns += 1
        self.value = self._samples[self._next] & 0xFFFF
        self._next += 1
        self.ready = True
        self.stats.delivered += 1
        return True

    def read(self) -> int:
        """Core-side data-register read (clears the ready bit)."""
        self.stats.reads += 1
        self.ready = False
        return self.value


class Adc:
    """The three-channel ADC block.

    Args:
        streams: one sample sequence per channel.
        period_cycles: clock cycles between consecutive samples (all
            channels sample simultaneously, as with a multi-lead ECG
            front-end).
        raise_irq: callback into the synchronizer, invoked with the
            channel's interrupt line number on each delivery.
        first_irq_line: interrupt line of channel 0 (channel ``c`` uses
            ``first_irq_line + c``).
    """

    def __init__(self, streams: Sequence[Sequence[int]], period_cycles: int,
                 raise_irq: Callable[[int], None],
                 first_irq_line: int = 0) -> None:
        if period_cycles < 1:
            raise ValueError("ADC period must be at least one cycle")
        self.channels = [AdcChannel(stream) for stream in streams]
        self.period_cycles = period_cycles
        self.raise_irq = raise_irq
        self.first_irq_line = first_irq_line
        self._countdown = period_cycles

    def tick(self) -> None:
        """Advance one clock cycle; deliver samples on period boundaries."""
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.period_cycles
        for number, channel in enumerate(self.channels):
            if channel.deliver():
                self.raise_irq(self.first_irq_line + number)

    def cycles_to_next(self) -> int:
        """Ticks up to and including the next period boundary."""
        return self._countdown

    def advance(self, cycles: int) -> None:
        """``cycles`` ticks that end before the next period boundary."""
        if not 0 <= cycles < self._countdown:
            raise ValueError("advance must stop before the next delivery")
        self._countdown -= cycles

    def read_data(self, channel: int) -> int:
        """Memory-mapped data-register read."""
        return self.channels[channel].read()

    def status_mask(self) -> int:
        """Memory-mapped status read: data-ready bitmask."""
        return sum(channel.ready << number
                   for number, channel in enumerate(self.channels))

    def write_ctrl(self, mask: int) -> None:
        """Memory-mapped control write: per-channel enable bits."""
        for number, channel in enumerate(self.channels):
            channel.enabled = bool(mask & (1 << number))

    @property
    def total_overruns(self) -> int:
        """Sum of overruns across channels (0 == real time met)."""
        return sum(channel.stats.overruns for channel in self.channels)

    @property
    def all_exhausted(self) -> bool:
        """True when every enabled channel delivered its whole stream."""
        return all(channel.exhausted or not channel.enabled
                   for channel in self.channels)
