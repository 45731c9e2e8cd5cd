"""Tests for the Address Translation Units (private/shared DM split).

A translation is a physical ``(bank, index)`` pair.
"""

import pytest
from hypothesis import given, strategies as st

from repro.hw.atu import MulticoreAtu, SingleCoreTranslation
from repro.hw.memory import MemoryFault
from repro.isa.layout import (
    DM_BANKS,
    DM_WORDS_PER_BANK,
    PERIPH_BASE,
    PRIVATE_WORDS,
    SHARED_BASE,
    SHARED_LIMIT,
    SYNC_POINT_BASE,
    SYNC_POINTS,
)


@pytest.fixture()
def atu() -> MulticoreAtu:
    return MulticoreAtu(num_cores=8)


def test_memory_map_is_consistent():
    # Private below shared, the shared section below the peripheral
    # window, and every sync point inside the shared section.
    assert 0 < PRIVATE_WORDS == SHARED_BASE < SHARED_LIMIT <= PERIPH_BASE
    assert SHARED_BASE <= SYNC_POINT_BASE
    assert SYNC_POINT_BASE + SYNC_POINTS <= SHARED_LIMIT


def test_private_addresses_get_per_core_tag(atu):
    loc0 = atu.translate(0, 100)
    loc1 = atu.translate(1, 100)
    assert loc0 != loc1
    assert loc0[0] // atu.banks_per_core == 0
    assert loc1[0] // atu.banks_per_core == 1


def test_shared_addresses_are_core_independent(atu):
    address = SHARED_BASE + 123
    assert atu.translate(0, address) == atu.translate(7, address)


def test_shared_section_interleaves_across_all_banks(atu):
    banks = {atu.translate(0, SHARED_BASE + offset)[0]
             for offset in range(DM_BANKS)}
    assert banks == set(range(DM_BANKS))


def test_consecutive_shared_words_land_in_consecutive_banks(atu):
    first_bank, _ = atu.translate(0, SHARED_BASE)
    second_bank, _ = atu.translate(0, SHARED_BASE + 1)
    assert second_bank == (first_bank + 1) % DM_BANKS


def test_peripheral_addresses_rejected(atu):
    with pytest.raises(MemoryFault, match="memory-mapped"):
        atu.translate(0, 0x7F00)


def test_unmapped_hole_rejected(atu):
    with pytest.raises(MemoryFault, match="unmapped"):
        atu.translate(0, SHARED_LIMIT)


def test_sync_points_translate_through_shared_path(atu):
    location = atu.shared_location(SYNC_POINT_BASE + 5)
    assert 0 <= location[0] < DM_BANKS
    assert atu.translate(3, SYNC_POINT_BASE + 5) == location


def test_shared_location_rejects_private(atu):
    with pytest.raises(MemoryFault, match="outside the shared"):
        atu.shared_location(10)


_CORES = st.integers(min_value=0, max_value=7)
_MAPPED = st.integers(min_value=0, max_value=SHARED_LIMIT - 1)


@given(_CORES, _MAPPED)
def test_translation_targets_valid_physical_locations(core, address):
    atu = MulticoreAtu(num_cores=8)
    bank, index = atu.translate(core, address)
    assert 0 <= bank < DM_BANKS
    assert 0 <= index < DM_WORDS_PER_BANK


@given(_CORES, _CORES,
       st.integers(min_value=0, max_value=PRIVATE_WORDS - 1),
       st.integers(min_value=0, max_value=PRIVATE_WORDS - 1))
def test_private_sections_never_collide_across_cores(core_a, core_b,
                                                     addr_a, addr_b):
    """Isolation invariant: distinct cores' private words are disjoint."""
    atu = MulticoreAtu(num_cores=8)
    if core_a == core_b:
        return
    assert atu.translate(core_a, addr_a) != atu.translate(core_b, addr_b)


@given(_CORES,
       st.integers(min_value=0, max_value=PRIVATE_WORDS - 1),
       st.integers(min_value=SHARED_BASE, max_value=SHARED_LIMIT - 1))
def test_private_and_shared_never_collide(core, private_addr, shared_addr):
    """A private word and a shared word never alias physically."""
    atu = MulticoreAtu(num_cores=8)
    assert atu.translate(core, private_addr) != \
        atu.translate(core, shared_addr)


@given(_CORES, _MAPPED, _MAPPED)
def test_translation_is_injective_per_core(core, addr_a, addr_b):
    atu = MulticoreAtu(num_cores=8)
    if addr_a == addr_b:
        return
    assert atu.translate(core, addr_a) != atu.translate(core, addr_b)


def test_atu_rejects_oversized_shared_section():
    # One bank per core: the private slices fill every bank, leaving
    # no room for the shared section.
    with pytest.raises(ValueError, match="exceeds"):
        MulticoreAtu(num_cores=16)


def test_atu_rejects_indivisible_bank_count():
    with pytest.raises(ValueError, match="not divisible"):
        MulticoreAtu(num_cores=3)


def test_single_core_translation_is_linear():
    translation = SingleCoreTranslation()
    bank, index = translation.translate(0, 5000)
    assert bank == 5000 // 2048
    assert index == 5000 % 2048


def test_single_core_footprint_banks():
    translation = SingleCoreTranslation()
    assert translation.banks_for_footprint(100) == {0}
    assert translation.banks_for_footprint(2048) == {0, 1}
    assert translation.banks_for_footprint(3 * 2048) == {0, 1, 2, 3}


def test_single_core_rejects_peripheral_and_overflow():
    translation = SingleCoreTranslation()
    with pytest.raises(MemoryFault):
        translation.translate(0, 0x7F10)
