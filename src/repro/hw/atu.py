"""Address Translation Units: private/shared DM split.

Sec. IV-A: "each core is equipped with a combinational Address
Translation Unit (ATU) consisting of a multiplexor that appends a
unique tag per core when an access to the private section is requested.
This implementation interleaves the shared section of DM between all
the available memory banks."

Two translators are provided:

* :class:`MulticoreAtu` — the paper's ATU.  Private logical addresses
  ``[0, PRIVATE_WORDS)`` are tagged with the issuing core's id and land
  in that core's slice of the banks (low indices of each bank group);
  shared addresses are interleaved modulo the number of banks (high
  indices).  Because of the interleaving, *every* DM bank backs part of
  the shared section, which is why Table I shows all 16 DM banks active
  in the multi-core configurations.
* :class:`SingleCoreTranslation` — the baseline's simple decoder:
  linear logical-to-physical mapping, so unused trailing banks can be
  powered off (Sec. IV-B).

Both return a physical location as a ``(bank, index)`` pair: the bank
number and the word's index within that bank.
"""

from __future__ import annotations

from ..isa.layout import (
    DM_BANKS,
    DM_WORDS_PER_BANK,
    PERIPH_BASE,
    PRIVATE_WORDS,
    SHARED_BASE,
    SHARED_LIMIT,
    SHARED_WORDS,
)
from .memory import MemoryFault


class MulticoreAtu:
    """The paper's per-core combinational ATU.

    Physical layout inside each bank: the low ``private_slice`` words
    back the private sections, the remaining words back the interleaved
    shared section.

    * Private: core ``c`` owns ``banks_per_core`` consecutive banks'
      private slices; logical address ``a`` maps to bank
      ``c * banks_per_core + a // private_slice``, index
      ``a % private_slice``.  The bank number is precisely the paper's
      "unique tag appended per core".
    * Shared: logical offset ``s = a - SHARED_BASE`` maps to bank
      ``s % DM_BANKS``, index ``private_slice + s // DM_BANKS``.
    """

    def __init__(self, num_cores: int) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        if DM_BANKS % num_cores:
            raise ValueError(
                f"{DM_BANKS} banks not divisible by {num_cores} cores")
        self.num_cores = num_cores
        self.banks_per_core = DM_BANKS // num_cores
        self.private_slice = PRIVATE_WORDS // self.banks_per_core
        shared_capacity = (DM_WORDS_PER_BANK - self.private_slice) * DM_BANKS
        if SHARED_WORDS > shared_capacity:
            raise ValueError(
                f"shared section ({SHARED_WORDS} words) exceeds "
                f"remaining physical capacity ({shared_capacity} words)")

    def translate(self, core: int, address: int) -> tuple[int, int]:
        """Translate a logical address issued by ``core``."""
        if address >= PERIPH_BASE:
            raise MemoryFault(
                f"address {address:#06x} is memory-mapped I/O, not DM")
        if address < SHARED_BASE:
            bank, index = divmod(address, self.private_slice)
            return core * self.banks_per_core + bank, index
        if address < SHARED_LIMIT:
            index, bank = divmod(address - SHARED_BASE, DM_BANKS)
            return bank, self.private_slice + index
        raise MemoryFault(
            f"core {core}: logical address {address:#06x} is unmapped "
            f"(shared section ends at {SHARED_LIMIT:#06x})")

    def shared_location(self, address: int) -> tuple[int, int]:
        """Translate a shared address without a core tag.

        Used by the synchronizer unit, whose port only ever touches the
        shared section (synchronization points).
        """
        if not SHARED_BASE <= address < SHARED_LIMIT:
            raise MemoryFault(
                f"address {address:#06x} is outside the shared section")
        return self.translate(0, address)


class SingleCoreTranslation:
    """The baseline's decoder: linear logical-to-physical mapping.

    "simpler decoders can be used instead of crossbars" (Sec. IV-B);
    data is packed from address 0 upward so trailing banks can be
    powered off when the application footprint is small.
    """

    def translate(self, core: int, address: int) -> tuple[int, int]:
        """Translate a logical address (``core`` accepted for symmetry)."""
        if address >= PERIPH_BASE:
            raise MemoryFault(
                f"address {address:#06x} is memory-mapped I/O, not DM")
        if address >= DM_BANKS * DM_WORDS_PER_BANK:
            raise MemoryFault(f"address {address:#06x} beyond physical DM")
        return divmod(address, DM_WORDS_PER_BANK)

    def shared_location(self, address: int) -> tuple[int, int]:
        """Synchronizer-port translation (same linear mapping)."""
        return self.translate(0, address)

    def banks_for_footprint(self, highest_address: int) -> set[int]:
        """Banks needed to cover addresses ``[0, highest_address]``."""
        last_bank = highest_address // DM_WORDS_PER_BANK
        return set(range(last_bank + 1))
