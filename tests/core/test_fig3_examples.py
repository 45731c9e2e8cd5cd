"""EXP-F3: replay the worked examples of the paper's Figure 3.

Fig. 3-a: "cores 0, 1 and 2 should jointly produce data for core 4;
data is not yet available" -> flags {0,1,2,4}, counter = 3.

Fig. 3-b: "cores 0, 1 and 2 have entered a data-dependent branch,
core 0 has finished executing it" -> flags {0,1,2}, counter = 2.
"""

from repro.core.synchronizer import SyncOp, SyncPointLayout, Synchronizer

from .points import point_state, point_word

LAYOUT = SyncPointLayout(num_cores=8)


def test_figure_3a_producer_consumer_snapshot():
    sync = Synchronizer(num_cores=8, num_points=1)
    sync.submit(0, SyncOp.SINC, 0)
    sync.submit(1, SyncOp.SINC, 0)
    sync.submit(2, SyncOp.SINC, 0)
    sync.submit(4, SyncOp.SNOP, 0)
    sync.end_cycle()

    flags, counter = point_state(sync, 0)
    assert LAYOUT.cores_of(flags) == (0, 1, 2, 4)
    assert counter == 3
    # Bit pattern of Fig. 3-a: flags 1110 1000, counter 0000 0011.
    assert point_word(sync, 0) == 0b1110_1000_0000_0011


def test_figure_3b_lockstep_snapshot():
    sync = Synchronizer(num_cores=8, num_points=1)
    sync.submit(0, SyncOp.SINC, 0)
    sync.submit(1, SyncOp.SINC, 0)
    sync.submit(2, SyncOp.SINC, 0)
    sync.submit(0, SyncOp.SDEC, 0)
    sync.end_cycle()

    flags, counter = point_state(sync, 0)
    assert LAYOUT.cores_of(flags) == (0, 1, 2)
    assert counter == 2
    # Bit pattern of Fig. 3-b: flags 1110 0000, counter 0000 0010.
    assert point_word(sync, 0) == 0b1110_0000_0000_0010


def test_figure_3a_completion_wakes_consumer():
    """Continue Fig. 3-a until the data is ready."""
    sync = Synchronizer(num_cores=8, num_points=1)
    for core in (0, 1, 2):
        sync.submit(core, SyncOp.SINC, 0)
    sync.submit(4, SyncOp.SNOP, 0)
    sync.end_cycle()
    assert sync.sleep(4) is True  # consumer clock-gates

    for core in (0, 1, 2):
        sync.submit(core, SyncOp.SDEC, 0)
    woken = sync.end_cycle()
    assert 4 in woken
    assert point_state(sync, 0) == (0, 0)


def test_figure_3b_completion_restores_lockstep():
    """Continue Fig. 3-b until all three cores resume together."""
    sync = Synchronizer(num_cores=8, num_points=1)
    for core in (0, 1, 2):
        sync.submit(core, SyncOp.SINC, 0)
    sync.end_cycle()

    # Cores finish the branch in the order 0, 2, 1.
    sync.submit(0, SyncOp.SDEC, 0)
    sync.end_cycle()
    assert sync.sleep(0) is True
    sync.submit(2, SyncOp.SDEC, 0)
    sync.end_cycle()
    assert sync.sleep(2) is True
    sync.submit(1, SyncOp.SDEC, 0)
    woken = sync.end_cycle()
    assert set(woken) == {0, 2}
    # Core 1 fired the event toward itself; its SLEEP falls through.
    assert sync.sleep(1) is False
