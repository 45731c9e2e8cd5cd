"""Randomised stress tests of the synchronization protocol.

Hypothesis drives the synchronizer through arbitrary interleavings of
well-formed protocol actions and checks global invariants that must
hold for *any* schedule:

* conservation — every `SINC` is eventually balanced by exactly one
  `SDEC`, so a drained system has all counters at zero;
* liveness — once all pending work is drained, no core remains
  clock-gated (no lost wake-ups), regardless of interleaving;
* merge soundness — splitting one cycle's requests across several
  cycles never changes the final point value, only the firing time.
"""

from hypothesis import given, settings, strategies as st

from repro.core.synchronizer import SyncOp, Synchronizer

from .points import point_state, point_word


@st.composite
def producer_consumer_scripts(draw):
    """Random interleavings of complete producer-consumer episodes.

    Each episode on a point: ``k`` producers SINC, a consumer SNOPs
    (at a random moment), every producer SDECs.  Episodes on distinct
    points interleave arbitrarily.
    """
    episodes = draw(st.integers(min_value=1, max_value=4))
    actions = []
    for point in range(episodes):
        producers = draw(st.lists(
            st.integers(min_value=0, max_value=6), min_size=1,
            max_size=3, unique=True))
        consumer = 7  # distinct core acts as consumer for all points
        episode = []
        for producer in producers:
            episode.append(("sinc", producer, point))
        episode.append(("snop", consumer, point))
        episode.append(("sleep", consumer, point))
        for producer in producers:
            episode.append(("sdec", producer, point))
        actions.append(episode)
    # interleave episodes while preserving each episode's inner order
    merged = []
    cursors = [0] * len(actions)
    order = draw(st.permutations(
        [index for index, episode in enumerate(actions)
         for _ in episode]))
    for index in order:
        merged.append(actions[index][cursors[index]])
        cursors[index] += 1
    return merged


@settings(max_examples=60, deadline=None)
@given(producer_consumer_scripts())
def test_no_lost_wakeups_under_any_interleaving(script):
    sync = Synchronizer(num_cores=8, num_points=8)
    for kind, core, point in script:
        if kind == "sinc":
            sync.submit(core, SyncOp.SINC, point)
        elif kind == "snop":
            sync.submit(core, SyncOp.SNOP, point)
        elif kind == "sdec":
            sync.submit(core, SyncOp.SDEC, point)
        else:  # sleep
            sync.sleep(core)
        sync.end_cycle()
    # Drained: every counter zero, nobody left gated.
    for point in range(8):
        _, counter = point_state(sync, point)
        assert counter == 0
    assert not any(sync.is_gated(core) for core in range(8))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7),
                          st.sampled_from([SyncOp.SINC, SyncOp.SNOP])),
                min_size=1, max_size=10),
       st.data())
def test_split_batches_reach_same_point_value(ops, data):
    """Applying requests in any batching yields the same final word
    when no firing occurs in between (counter kept positive)."""
    # Prefix with enough SINCs that no intermediate batch can fire.
    requests = [(0, SyncOp.SINC)] * (len(ops) + 1) + ops

    # one big batch
    whole = Synchronizer(num_cores=8, num_points=1)
    for core, op in requests:
        whole.submit(core, op, 0)
    whole.end_cycle()

    # random split into consecutive batches, one cycle each
    split = Synchronizer(num_cores=8, num_points=1)
    index = 0
    while index < len(requests):
        size = data.draw(st.integers(min_value=1,
                                     max_value=len(requests) - index))
        for core, op in requests[index:index + size]:
            split.submit(core, op, 0)
        split.end_cycle()
        assert split.stats.point_fires == 0  # the guard keeps it positive
        index += size

    assert point_word(whole, 0) == point_word(split, 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=2,
                max_size=7, unique=True),
       st.randoms())
def test_lockstep_group_always_releases(cores, rng):
    """Any SDEC completion order releases every participant."""
    sync = Synchronizer(num_cores=8, num_points=2)
    for core in cores:
        sync.submit(core, SyncOp.SINC, 0)
    sync.end_cycle()
    order = list(cores)
    rng.shuffle(order)
    for index, core in enumerate(order):
        sync.submit(core, SyncOp.SDEC, 0)
        sync.end_cycle()
        gated = sync.sleep(core)
        is_last = index == len(order) - 1
        assert gated != is_last  # only the last falls through
    assert not any(sync.is_gated(core) for core in cores)
    assert point_state(sync, 0) == (0, 0)
