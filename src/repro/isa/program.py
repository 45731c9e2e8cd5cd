"""Program images produced by the assembler/builder.

A :class:`ProgramImage` is everything the platform loader needs: the
instruction words (sparse, addressed by IM word address), initial data
memory contents, per-core entry points, the symbol table and per-section
placement records.  It also knows how to compute the *code overhead* of
the synchronization methodology (Table I row "Code Overhead"), i.e. the
fraction of instruction words occupied by the synchronization ISE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .encoding import decode
from .layout import IM_WORDS_PER_BANK
from .spec import OP_TABLE


@dataclass(frozen=True)
class SectionInfo:
    """Placement record of one assembled section.

    Attributes:
        name: section name as written in the source.
        bank: IM bank the section was placed in.
        base: absolute IM word address of the first word.
        size: section size in instruction words.
    """

    name: str
    bank: int
    base: int
    size: int

    @property
    def end(self) -> int:
        """One past the last occupied address."""
        return self.base + self.size


@dataclass
class ProgramImage:
    """An executable image for the WBSN platform.

    Attributes:
        im: sparse instruction memory contents (word address -> word).
        dm_init: initial data memory contents (logical address -> word).
        entries: per-core entry points (core id -> IM word address).
        symbols: absolute values of all labels and constants.
        sections: placement records, in assembly order.
    """

    im: dict[int, int] = field(default_factory=dict)
    dm_init: dict[int, int] = field(default_factory=dict)
    entries: dict[int, int] = field(default_factory=dict)
    symbols: dict[str, int] = field(default_factory=dict)
    sections: list[SectionInfo] = field(default_factory=list)
    dm_footprint: int = 0

    def dm_highest_address(self) -> int:
        """Highest data address the program declares it will touch.

        The maximum of the statically initialised words and the
        ``.dmfootprint`` building directive; the single-core loader
        powers off every bank above this address (Sec. V-A: "unused
        memory banks are powered-off").
        """
        highest = self.dm_footprint
        if self.dm_init:
            highest = max(highest, max(self.dm_init))
        return highest

    @property
    def code_words(self) -> int:
        """Total number of occupied instruction words."""
        return len(self.im)

    def banks_used(self) -> set[int]:
        """IM banks containing at least one word of this image."""
        return {addr // IM_WORDS_PER_BANK for addr in self.im}

    def sync_instruction_count(self) -> int:
        """Number of synchronization-ISE words in the image.

        Counts ``sinc``/``sdec``/``snop``/``sleep``; this is the
        numerator of the paper's "Code Overhead" metric.
        """
        count = 0
        for word in self.im.values():
            try:
                instr = decode(word)
            except Exception:
                continue  # raw .word data, not an instruction
            if OP_TABLE[instr.op].is_sync:
                count += 1
        return count

    def code_overhead(self) -> float:
        """Fraction of the code occupied by synchronization instructions."""
        if not self.im:
            return 0.0
        return self.sync_instruction_count() / self.code_words

    def entry_for(self, core: int) -> int | None:
        """Entry point of ``core``, or ``None`` if the core is unused."""
        return self.entries.get(core)
