"""Tests for banked memories and power gating."""

import pytest

from repro.hw.memory import BankedMemory, MemoryBank, MemoryFault


def test_bank_read_write_and_counters():
    bank = MemoryBank(words=16, word_mask=0xFFFF)
    bank.write(3, 0x1234)
    assert bank.read(3) == 0x1234
    assert bank.reads == 1
    assert bank.writes == 1
    assert bank.accesses == 2


def test_bank_masks_stored_words():
    bank = MemoryBank(words=4, word_mask=0xFFFF)
    bank.write(0, 0x1_0001)
    assert bank.read(0) == 0x0001


def test_powered_off_bank_faults():
    bank = MemoryBank(words=4, word_mask=0xFFFF)
    bank.powered = False
    with pytest.raises(MemoryFault, match="powered off"):
        bank.read(0)
    with pytest.raises(MemoryFault, match="powered off"):
        bank.write(0, 1)
    bank.powered = True
    bank.write(0, 1)  # works again


def test_out_of_range_faults():
    bank = MemoryBank(words=4, word_mask=0xFFFF)
    with pytest.raises(MemoryFault, match="out of range"):
        bank.read(4)


def test_peek_poke_do_not_count():
    bank = MemoryBank(words=4, word_mask=0xFFFF)
    bank.poke(1, 7)
    assert bank.peek(1) == 7
    assert bank.accesses == 0


def test_poke_requires_power():
    bank = MemoryBank(words=4, word_mask=0xFFFF)
    bank.powered = False
    with pytest.raises(MemoryFault):
        bank.poke(0, 1)


def test_banked_memory_power_off_unused():
    memory = BankedMemory(banks=8, words_per_bank=4, word_mask=0xFFFF)
    memory.power_off_unused({0, 3})
    assert memory.activity().powered_banks == 2
    assert memory.banks[0].powered
    assert not memory.banks[1].powered
    memory.power_off_unused({1})
    assert memory.banks[1].powered
    assert not memory.banks[0].powered


def test_banked_memory_activity_snapshot():
    memory = BankedMemory(banks=2, words_per_bank=4, word_mask=0xFFFF)
    memory.banks[0].write(1, 5)
    memory.banks[0].read(1)
    memory.banks[1].read(0)
    activity = memory.activity()
    assert activity.reads == 2
    assert activity.writes == 1
    assert activity.accesses == 3
    assert activity.per_bank_accesses == (2, 1)
    assert activity.powered_banks == 2


def test_reset_counters_keeps_power_state():
    memory = BankedMemory(banks=2, words_per_bank=4, word_mask=0xFFFF)
    memory.banks[0].read(0)
    memory.power_off_unused({0})
    memory.reset_counters()
    assert memory.activity().accesses == 0
    assert memory.activity().powered_banks == 1
