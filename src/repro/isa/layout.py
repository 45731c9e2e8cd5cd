"""Memory geometry and memory map of the WBSN platform.

The defaults follow Sec. IV-B of the paper:

* instruction memory: 96 KByte = 32 KWords x 24 bit, in 8 banks;
* data memory: 64 KByte = 32 KWords x 16 bit, in 16 banks;
* a three-channel ADC behind memory-mapped registers in shared DM;
* data-ready interrupt lines wired to the synchronizer.

Logical data addresses are 16-bit word addresses.  The top 256 words
(``0x7F00``-``0x7FFF``) form the peripheral window, which is intercepted
by the platform before it reaches the ATU/data memory.  Synchronization
points live in the *shared* data region so that ordinary ``lw`` can
inspect them, as in the paper where they are "reserved locations ... in
the shared data memory".
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ImGeometry:
    """Instruction memory geometry."""

    banks: int = 8
    words_per_bank: int = 4096

    @property
    def total_words(self) -> int:
        """Total instruction words across all banks."""
        return self.banks * self.words_per_bank

    def bank_of(self, address: int) -> int:
        """Bank index holding instruction word ``address``."""
        return address // self.words_per_bank


@dataclass(frozen=True)
class DmGeometry:
    """Data memory geometry."""

    banks: int = 16
    words_per_bank: int = 2048

    @property
    def total_words(self) -> int:
        """Total data words across all banks."""
        return self.banks * self.words_per_bank


#: Base of the memory-mapped peripheral window (logical DM address).
PERIPH_BASE = 0x7F00

#: Synchronizer: interrupt subscription mask register (read/write).
REG_INT_SUBSCRIBE = 0x7F00
#: Synchronizer: pending interrupt lines (read-only).
REG_INT_STATUS = 0x7F01
#: ADC sample registers, one per channel (read clears data-ready).
REG_ADC_DATA0 = 0x7F10
REG_ADC_DATA1 = 0x7F11
REG_ADC_DATA2 = 0x7F12
#: ADC control: write a channel-enable bitmask.
REG_ADC_CTRL = 0x7F18
#: ADC status: data-ready bitmask (read-only, non-destructive).
REG_ADC_STATUS = 0x7F19
#: Identifier of the issuing core (read-only).
REG_CORE_ID = 0x7F20
#: Free-running cycle counter, low and high 16-bit halves (read-only).
REG_CYCLE_LO = 0x7F21
REG_CYCLE_HI = 0x7F22

#: Interrupt line numbers of the ADC channels.
IRQ_ADC_CH0 = 0
IRQ_ADC_CH1 = 1
IRQ_ADC_CH2 = 2


@dataclass(frozen=True)
class MemoryMap:
    """Logical data-memory map shared by tool-chain and platform.

    Attributes:
        private_words: size of each core's private region; logical
            addresses ``[0, private_words)`` are private (translated by
            the ATU with the issuing core's tag).
        shared_base: first logical address of the shared region (equals
            ``private_words``).
        shared_words: number of logical words in the shared region.
        sync_point_base: logical address of synchronization point 0.
        sync_points: number of reserved synchronization points.
    """

    private_words: int = 2048
    shared_words: int = 15 * 1024
    sync_point_base: int = 0x4000
    sync_points: int = 64

    @property
    def shared_base(self) -> int:
        """First logical address of the shared section."""
        return self.private_words

    @property
    def shared_limit(self) -> int:
        """One past the last logical shared address."""
        return self.shared_base + self.shared_words

    def validate(self) -> None:
        """Raise ``ValueError`` on an inconsistent map."""
        if self.private_words < 0:
            raise ValueError("private_words must be non-negative")
        if self.shared_limit > PERIPH_BASE:
            raise ValueError("shared region overlaps peripheral window")
        span = (self.sync_point_base, self.sync_point_base + self.sync_points)
        if not (self.shared_base <= span[0] and span[1] <= self.shared_limit):
            raise ValueError("sync points must live in the shared region")


@dataclass(frozen=True)
class PlatformGeometry:
    """Full platform geometry: memories plus the memory map."""

    im: ImGeometry = field(default_factory=ImGeometry)
    dm: DmGeometry = field(default_factory=DmGeometry)
    memory_map: MemoryMap = field(default_factory=MemoryMap)

    def validate(self) -> None:
        """Raise ``ValueError`` on an inconsistent geometry."""
        self.memory_map.validate()
        if self.im.banks <= 0 or self.dm.banks <= 0:
            raise ValueError("memories need at least one bank")


#: Geometry used throughout the paper's experiments.
DEFAULT_GEOMETRY = PlatformGeometry()
