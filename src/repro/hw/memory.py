"""Banked instruction and data memories with per-bank power gating.

The paper requires that "IM and DM must be divided into several banks so
that they can be read/written independently and powered-off if not used
in order to save energy" (Sec. III-A, property 1).  Each
:class:`MemoryBank` tracks its power state and access counts; the power
model charges dynamic energy per access and leakage per powered cycle.
"""

from __future__ import annotations

from dataclasses import dataclass


class MemoryFault(Exception):
    """An access touched a powered-off bank or an out-of-range address."""


class MemoryBank:
    """One independently powered memory bank.

    Args:
        words: bank capacity in words.
        word_mask: bit mask of a stored word (0xFFFF for DM, 0xFFFFFF
            for IM).
        name: diagnostic name used in fault messages.
    """

    def __init__(self, words: int, word_mask: int, name: str = "bank") -> None:
        self.words = words
        self.word_mask = word_mask
        self.name = name
        self.data = [0] * words
        # A powered-off bank keeps its contents, but every access faults
        # (the paper gates only unused banks, so retention never matters).
        self.powered = True
        self.reads = 0
        self.writes = 0

    def read(self, index: int) -> int:
        """Read one word; faults if the bank is off or out of range."""
        self._check(index)
        self.reads += 1
        return self.data[index]

    def write(self, index: int, value: int) -> None:
        """Write one word; faults if the bank is off or out of range."""
        self._check(index)
        self.writes += 1
        self.data[index] = value & self.word_mask

    def peek(self, index: int) -> int:
        """Debug read: no counters, no power check."""
        return self.data[index]

    def poke(self, index: int, value: int) -> None:
        """Debug/loader write: no counters, but the bank must be on."""
        if not self.powered:
            raise MemoryFault(f"{self.name}: loading into powered-off bank")
        self.data[index] = value & self.word_mask

    @property
    def accesses(self) -> int:
        """Total dynamic accesses (reads + writes)."""
        return self.reads + self.writes

    def _check(self, index: int) -> None:
        if not self.powered:
            raise MemoryFault(f"{self.name}: access while powered off")
        if not 0 <= index < self.words:
            raise MemoryFault(
                f"{self.name}: index {index} out of range [0, {self.words})")


@dataclass(frozen=True)
class MemoryActivity:
    """Aggregate activity snapshot of a banked memory.

    Attributes:
        reads: total read accesses across banks.
        writes: total write accesses across banks.
        powered_banks: number of banks currently powered.
        per_bank_accesses: access count per bank, in bank order.
    """

    reads: int
    writes: int
    powered_banks: int
    per_bank_accesses: tuple[int, ...]

    @property
    def accesses(self) -> int:
        """Total accesses."""
        return self.reads + self.writes


class BankedMemory:
    """A set of equally sized banks forming one memory.

    Addressing policy (which bank serves which address) is *not* decided
    here — it belongs to the interconnect/ATU.  This class only owns
    storage, power state and counters.
    """

    def __init__(self, banks: int, words_per_bank: int, word_mask: int,
                 name: str = "mem") -> None:
        self.name = name
        self.words_per_bank = words_per_bank
        self.banks = [
            MemoryBank(words_per_bank, word_mask, name=f"{name}[{i}]")
            for i in range(banks)
        ]

    def power_off_unused(self, used_banks: set[int]) -> None:
        """Power on the banks in ``used_banks`` and off every other."""
        for number, bank in enumerate(self.banks):
            bank.powered = number in used_banks

    def activity(self) -> MemoryActivity:
        """Aggregate activity snapshot (for the power model)."""
        return MemoryActivity(
            reads=sum(bank.reads for bank in self.banks),
            writes=sum(bank.writes for bank in self.banks),
            powered_banks=sum(bank.powered for bank in self.banks),
            per_bank_accesses=tuple(bank.accesses for bank in self.banks),
        )

    def reset_counters(self) -> None:
        """Zero all access counters (power state is kept)."""
        for bank in self.banks:
            bank.reads = 0
            bank.writes = 0
