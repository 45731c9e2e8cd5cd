"""The paper's protocols, written as its instructions on the unit.

Fig. 3-a's producer-consumer exchange, Fig. 3-b's lock-step region and
a reusable sense barrier, each as the ``SINC``/``SDEC``/``SNOP``/
``SLEEP`` sequence a program issues.  Every instruction takes a cycle
of its own unless a test issues several in one cycle to see them
merge.
"""

from hypothesis import given, settings, strategies as st

from repro.core.synchronizer import SyncOp, Synchronizer


def _issue(sync: Synchronizer, core: int, op: SyncOp,
           point: int) -> tuple[int, ...]:
    """One cycle in which ``core`` issues ``op`` on ``point``."""
    sync.submit(core, op, point)
    return sync.end_cycle()


def _enter(sync: Synchronizer, cores, point: int) -> None:
    """One cycle in which every core of ``cores`` issues ``SINC``."""
    for core in cores:
        sync.submit(core, SyncOp.SINC, point)
    sync.end_cycle()


def _leave(sync: Synchronizer, core: int, point: int) -> bool:
    """``SDEC`` then ``SLEEP``; True if the core gated."""
    _issue(sync, core, SyncOp.SDEC, point)
    return sync.sleep(core)


def _arrive(sync: Synchronizer, core: int, epoch: int) -> bool:
    """One arrival at a sense barrier over points 0 and 1.

    The core pre-registers on the next epoch's point, then leaves the
    current one; True if it had to sleep.
    """
    _issue(sync, core, SyncOp.SINC, (epoch + 1) % 2)
    return _leave(sync, core, epoch % 2)


def test_producer_consumer_channel_happy_path():
    sync = Synchronizer(num_cores=8)
    for producer in (0, 1, 2):
        _issue(sync, producer, SyncOp.SINC, 0)
    _issue(sync, 4, SyncOp.SNOP, 0)
    assert sync.sleep(4) is True
    assert sync.is_gated(4)

    for producer in (0, 1):
        _issue(sync, producer, SyncOp.SDEC, 0)
        assert sync.is_gated(4)
    assert 4 in _issue(sync, 2, SyncOp.SDEC, 0)
    assert not sync.is_gated(4)


def test_consumer_registering_after_data_ready_does_not_hang():
    sync = Synchronizer(num_cores=8)
    _issue(sync, 0, SyncOp.SINC, 0)
    _issue(sync, 0, SyncOp.SDEC, 0)  # data ready before consumer arrives
    _issue(sync, 4, SyncOp.SNOP, 0)  # fires immediately (counter == 0)
    assert sync.sleep(4) is False
    assert not sync.is_gated(4)


def test_lockstep_region_releases_all_cores_together():
    sync = Synchronizer(num_cores=8)
    _enter(sync, [0, 1, 2], point=1)
    assert _leave(sync, 1, 1)
    assert _leave(sync, 0, 1)
    # The last core's SLEEP falls through via the latch.
    assert not _leave(sync, 2, 1)
    assert not any(sync.is_gated(core) for core in (0, 1, 2))


def test_lockstep_single_core_region_is_transparent():
    sync = Synchronizer(num_cores=4)
    _enter(sync, [2], point=0)
    assert not _leave(sync, 2, 0)


def test_sense_barrier_single_epoch():
    sync = Synchronizer(num_cores=4)
    _enter(sync, [0, 1, 2, 3], point=0)
    assert _arrive(sync, 0, 0) is True
    assert _arrive(sync, 1, 0) is True
    assert _arrive(sync, 2, 0) is True
    assert _arrive(sync, 3, 0) is False  # last arrival falls through
    assert not any(sync.is_gated(core) for core in range(4))


def test_sense_barrier_is_reusable_across_epochs():
    sync = Synchronizer(num_cores=3)
    _enter(sync, [0, 1, 2], point=0)
    for epoch in range(4):  # four consecutive epochs
        for core in (0, 1):
            assert _arrive(sync, core, epoch) is True
        assert _arrive(sync, 2, epoch) is False
        assert not any(sync.is_gated(core) for core in range(3))


@settings(max_examples=30)
@given(st.permutations(list(range(5))), st.integers(min_value=2, max_value=5))
def test_sense_barrier_any_arrival_order(order, parties_count):
    """No arrival order may deadlock or double-release the barrier."""
    parties = list(range(parties_count))
    sync = Synchronizer(num_cores=5)
    _enter(sync, parties, point=0)
    arrival_order = [core for core in order if core in parties]
    for epoch in range(2):
        for index, core in enumerate(arrival_order):
            slept = _arrive(sync, core, epoch)
            is_last = index == len(arrival_order) - 1
            assert slept != is_last
        assert not any(sync.is_gated(core) for core in parties)


def test_step_merges_same_cycle_requests():
    sync = Synchronizer(num_cores=8)
    sync.submit(0, SyncOp.SINC, 0)
    sync.submit(1, SyncOp.SINC, 0)
    sync.submit(1, SyncOp.SDEC, 0)
    sync.submit(0, SyncOp.SDEC, 0)
    # net delta zero with flags set -> fires at once; both cores are
    # running, so nobody is woken and both get a latched event
    assert sync.end_cycle() == ()
    assert sync.has_pending_event(0)
    assert sync.has_pending_event(1)
