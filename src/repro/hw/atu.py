"""Address Translation Units: private/shared DM split.

Sec. IV-A: "each core is equipped with a combinational Address
Translation Unit (ATU) consisting of a multiplexor that appends a
unique tag per core when an access to the private section is requested.
This implementation interleaves the shared section of DM between all
the available memory banks."

Two translators are provided:

* :class:`MulticoreAtu` — the paper's ATU.  Private logical addresses
  ``[0, private_words)`` are tagged with the issuing core's id and land
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

from ..isa.layout import PERIPH_BASE, DmGeometry, MemoryMap
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
    * Shared: logical offset ``s = a - shared_base`` maps to bank
      ``s % banks``, index ``private_slice + s // banks``.
    """

    def __init__(self, num_cores: int, geometry: DmGeometry,
                 memory_map: MemoryMap) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        if geometry.banks % num_cores:
            raise ValueError(
                f"{geometry.banks} banks not divisible by "
                f"{num_cores} cores")
        self.num_cores = num_cores
        self.geometry = geometry
        self.banks_per_core = geometry.banks // num_cores
        if memory_map.private_words % self.banks_per_core:
            raise ValueError("private_words must split evenly over the "
                             "banks of one core")
        self.private_slice = memory_map.private_words // self.banks_per_core
        if self.private_slice > geometry.words_per_bank:
            raise ValueError("private section exceeds bank capacity")
        shared_capacity = (geometry.words_per_bank - self.private_slice) \
            * geometry.banks
        if memory_map.shared_words > shared_capacity:
            raise ValueError(
                f"shared section ({memory_map.shared_words} words) exceeds "
                f"remaining physical capacity ({shared_capacity} words)")
        self._shared = memory_map.shared_base, memory_map.shared_limit

    def translate(self, core: int, address: int) -> tuple[int, int]:
        """Translate a logical address issued by ``core``."""
        if address >= PERIPH_BASE:
            raise MemoryFault(
                f"address {address:#06x} is memory-mapped I/O, not DM")
        base, limit = self._shared
        if address < base:
            bank, index = divmod(address, self.private_slice)
            return core * self.banks_per_core + bank, index
        if address < limit:
            index, bank = divmod(address - base, self.geometry.banks)
            return bank, self.private_slice + index
        raise MemoryFault(
            f"core {core}: logical address {address:#06x} is unmapped "
            f"(shared section ends at {limit:#06x})")

    def shared_location(self, address: int) -> tuple[int, int]:
        """Translate a shared address without a core tag.

        Used by the synchronizer unit, whose port only ever touches the
        shared section (synchronization points).
        """
        base, limit = self._shared
        if not base <= address < limit:
            raise MemoryFault(
                f"address {address:#06x} is outside the shared section")
        return self.translate(0, address)


class SingleCoreTranslation:
    """The baseline's decoder: linear logical-to-physical mapping.

    "simpler decoders can be used instead of crossbars" (Sec. IV-B);
    data is packed from address 0 upward so trailing banks can be
    powered off when the application footprint is small.
    """

    def __init__(self, geometry: DmGeometry) -> None:
        self.geometry = geometry

    def translate(self, core: int, address: int) -> tuple[int, int]:
        """Translate a logical address (``core`` accepted for symmetry)."""
        if address >= PERIPH_BASE:
            raise MemoryFault(
                f"address {address:#06x} is memory-mapped I/O, not DM")
        if address >= self.geometry.total_words:
            raise MemoryFault(f"address {address:#06x} beyond physical DM")
        return divmod(address, self.geometry.words_per_bank)

    def shared_location(self, address: int) -> tuple[int, int]:
        """Synchronizer-port translation (same linear mapping)."""
        return self.translate(0, address)

    def banks_for_footprint(self, highest_address: int) -> set[int]:
        """Banks needed to cover addresses ``[0, highest_address]``."""
        last_bank = highest_address // self.geometry.words_per_bank
        return set(range(last_bank + 1))
