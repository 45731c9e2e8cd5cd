"""Tests for the synchronizer unit: gating, latches, interrupts, stats."""

import pytest

from repro.core.synchronizer import DictStorage, SyncOp, Synchronizer

from .points import point_state, point_word


def _make(num_cores=8, **kwargs):
    return Synchronizer(num_cores=num_cores, num_points=8, **kwargs)


def test_producer_consumer_wakeup():
    sync = _make()
    # consumer 4 registers while producer already SINCed
    sync.submit(0, SyncOp.SINC, 0)
    assert sync.end_cycle() == ()
    sync.submit(4, SyncOp.SNOP, 0)
    assert sync.end_cycle() == ()
    assert sync.sleep(4) is True
    assert sync.is_gated(4)
    sync.submit(0, SyncOp.SDEC, 0)
    woken = sync.end_cycle()
    # Gated consumer resumes; the running producer gets a latched event.
    assert woken == (4,)
    assert not sync.is_gated(4)
    assert sync.has_pending_event(0)


def test_same_cycle_requests_are_merged_into_one_write():
    storage = DictStorage()
    sync = _make(storage=storage)
    baseline = storage.writes
    for core in (0, 1, 2):
        sync.submit(core, SyncOp.SINC, 3)
    sync.end_cycle()
    assert storage.writes == baseline + 1
    assert sync.stats.merged_writes_saved == 2
    flags, counter = point_state(sync, 3)
    assert counter == 3
    assert sync.layout.cores_of(point_state(sync, 3)[0]) == (0, 1, 2)


def test_sdec_then_sleep_race_is_absorbed_by_latch():
    """The last core of a lock-step region must not sleep forever."""
    sync = _make()
    # Cores 0 and 1 enter a lock-step region together.
    sync.submit(0, SyncOp.SINC, 0)
    sync.submit(1, SyncOp.SINC, 0)
    sync.end_cycle()
    # Core 1 finishes first: SDEC + SLEEP -> gated.
    sync.submit(1, SyncOp.SDEC, 0)
    sync.end_cycle()
    assert sync.sleep(1) is True
    # Core 0 finishes last: its SDEC zeroes the counter, firing the
    # event toward core 0 itself (running) and core 1 (gated).
    sync.submit(0, SyncOp.SDEC, 0)
    woken = sync.end_cycle()
    assert woken == (1,)
    assert sync.has_pending_event(0)
    # Core 0's subsequent SLEEP falls through thanks to the latch.
    assert sync.sleep(0) is False
    assert not sync.is_gated(0)
    assert sync.stats.fall_through_sleeps == 1


def test_interrupt_subscription_and_wake():
    sync = _make()
    sync.subscribe(2, 1 << 5)
    assert sync.subscription(2) == 1 << 5
    assert sync.sleep(2) is True
    sync.raise_interrupt(5)
    assert sync.end_cycle() == (2,)
    assert not sync.is_gated(2)


def test_interrupt_to_running_core_sets_latch():
    sync = _make()
    sync.subscribe(3, 1)
    sync.raise_interrupt(0)
    assert sync.end_cycle() == ()
    assert sync.has_pending_event(3)
    assert sync.sleep(3) is False


def test_unsubscribed_core_is_not_woken():
    sync = _make()
    sync.subscribe(1, 1 << 2)
    assert sync.sleep(1) is True
    sync.raise_interrupt(3)
    assert sync.end_cycle() == ()
    assert sync.is_gated(1)


def test_two_independent_points_fire_independently():
    sync = _make()
    sync.submit(0, SyncOp.SINC, 0)
    sync.submit(1, SyncOp.SINC, 1)
    sync.end_cycle()
    sync.submit(0, SyncOp.SDEC, 0)
    woken = sync.end_cycle()
    assert woken == ()  # core 0 running -> latched, not woken
    assert sync.has_pending_event(0)
    flags, counter = point_state(sync, 1)
    assert counter == 1  # point 1 untouched


def test_points_live_in_shared_storage():
    storage = DictStorage()
    sync = Synchronizer(num_cores=4, num_points=4, point_base=0x4000,
                        storage=storage)
    sync.submit(0, SyncOp.SINC, 2)
    sync.end_cycle()
    assert storage.words[0x4002] != 0
    assert point_word(sync, 2) == storage.words[0x4002]


def test_stats_count_ops_and_overhead_numerator():
    sync = _make()
    sync.submit(0, SyncOp.SINC, 0)
    sync.submit(1, SyncOp.SNOP, 0)
    sync.end_cycle()
    sync.submit(0, SyncOp.SDEC, 0)
    sync.end_cycle()
    sync.sleep(1)
    assert sync.stats.op_counts == {
        "sinc": 1, "sdec": 1, "snop": 1, "sleep": 1}
    assert sync.stats.total_sync_instructions == 4


def test_end_cycle_returns_woken_cores():
    sync = Synchronizer(num_cores=2, num_points=2)
    sync.submit(0, SyncOp.SINC, 0)
    assert sync.end_cycle() == ()
    sync.sleep(0)
    sync.submit(1, SyncOp.SDEC, 0)
    assert sync.end_cycle() == (0,)
    assert sync.stats.wakes == 1


def test_reset_clears_everything():
    sync = _make()
    sync.submit(0, SyncOp.SINC, 0)
    sync.end_cycle()
    sync.sleep(1)
    sync.reset()
    assert point_state(sync, 0) == (0, 0)
    assert not sync.is_gated(1)
    assert sync.stats.total_sync_instructions == 0


def test_point_out_of_range_rejected():
    sync = _make()
    with pytest.raises(ValueError):
        sync.submit(0, SyncOp.SINC, 99)


def test_core_out_of_range_rejected():
    sync = _make(num_cores=2)
    with pytest.raises(ValueError):
        sync.sleep(5)
