"""Tests for the shared shard-and-merge process helpers."""

import os

import pytest

from repro import obs, parallel
from repro.parallel import even_shard_size, pool_map, shard, worker_pool

from .processes import children, run_fresh


def _square(value):
    return value * value


class BeatLost(RuntimeError):
    """Domain-flavoured worker failure with a payload-carrying arg."""


def _explode(value):
    raise BeatLost(f"beat {value} lost")


def _explode_observed(value):
    obs.add("exploded.before", 1)
    raise BeatLost(f"beat {value} lost")


#: The test process; forked children inherit the value.
_CALLER = os.getpid()


def _explode_in_child(value):
    """Square ``value`` in the caller's share; raise in a child's."""
    obs.add("exploded.before", 1)
    if os.getpid() == _CALLER:
        return value * value
    raise BeatLost(f"beat {value} lost")


def _pid(value):
    obs.add("pid.calls", value)
    return os.getpid()


def test_shard_and_even_shard_size():
    assert shard([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
    assert even_shard_size(10, 3) == 4
    assert even_shard_size(0, 3) == 1
    with pytest.raises(ValueError):
        shard([1], 0)


def test_pool_map_short_circuits_empty_payloads():
    # No pool is spawned: an unpicklable function is fine even with
    # many workers because the empty list returns before any fork.
    assert pool_map(lambda x: x, [], workers=8) == []


def test_pool_map_single_worker_runs_inline():
    # The inline path never pickles: closures over local state work,
    # and side effects land in *this* process.
    seen = []

    def record(value):
        seen.append(value)
        return value + 1

    assert pool_map(record, [1, 2, 3], workers=1) == [2, 3, 4]
    assert seen == [1, 2, 3]


def test_pool_map_parallel_matches_inline():
    payloads = list(range(7))
    assert pool_map(_square, payloads, workers=2) == \
        pool_map(_square, payloads, workers=1)


def test_pool_map_runs_inline_where_fork_is_unsafe(monkeypatch):
    monkeypatch.setattr(parallel, "_FORK", False)
    before = children()
    assert pool_map(_pid, range(5), workers=3) == [os.getpid()] * 5
    assert pool_map(_square, range(5), workers=3) == \
        [value * value for value in range(5)]
    assert children() == before


def test_pool_map_rejects_zero_workers():
    with pytest.raises(ValueError):
        pool_map(_square, [1], workers=0)


def test_pool_map_worker_raise_propagates_original_exception():
    # The pool re-raises the worker's own exception class in the
    # parent — not a pickling wrapper — with its message intact.
    with pytest.raises(BeatLost, match="beat 3 lost"):
        pool_map(_explode_in_child, [1, 2, 3], workers=2)


def test_pool_map_inline_raise_propagates_original_exception():
    with pytest.raises(BeatLost, match="beat 1 lost"):
        pool_map(_explode, [1], workers=1)


def test_pool_map_worker_raise_leaves_no_orphaned_registry():
    # A failing pooled run must not leak worker-local registries into
    # the parent: the caller's registry stays active through the
    # failure and deactivates normally with the context.
    with obs.collecting() as registry:
        with pytest.raises(BeatLost):
            pool_map(_explode_in_child, [1, 2], workers=2)
        assert obs.active() is registry
        # the registry still works: a follow-up run merges cleanly
        pool_map(_square, [1, 2, 3], workers=2)
    assert obs.active() is None


def test_pool_map_inline_raise_leaves_no_orphaned_registry():
    with obs.collecting() as registry:
        with pytest.raises(BeatLost):
            pool_map(_explode_observed, [7], workers=1)
        assert obs.active() is registry
        # the inline path recorded straight into the caller's
        # registry before raising
        counters = registry.snapshot()["counters"]
        assert counters["exploded.before"] == 1
    assert obs.active() is None


def test_pool_map_raise_without_collection_leaves_obs_inactive():
    assert obs.active() is None
    with pytest.raises(BeatLost):
        pool_map(_explode_in_child, [1, 2], workers=2)
    assert obs.active() is None


def _shares(pids):
    """The run of equal pids each share made, in payload order."""
    runs = []
    for pid in pids:
        if runs and runs[-1][0] == pid:
            runs[-1][1] += 1
        else:
            runs.append([pid, 1])
    return runs


def test_pool_map_outside_a_block_forks_a_pool_per_call():
    # Share 0 runs in the caller and shares 1… in workers - 1 children
    # forked for the call and reaped before it returns.
    me, before = os.getpid(), children()
    first = pool_map(_pid, range(4), workers=2)
    second = pool_map(_pid, range(10), workers=3)
    assert [count for _, count in _shares(first)] == [2, 2]
    assert [count for _, count in _shares(second)] == [4, 4, 2]
    assert first[0] == second[0] == me
    forked = first[2:] + second[4:]
    assert len(set(forked)) == 3 and me not in forked
    assert children() == before


def test_worker_pool_serves_every_call_of_the_block():
    me, before = os.getpid(), children()
    with worker_pool(3):
        first = pool_map(_pid, range(6), workers=3)
        # One payload (one share, inline), fewer workers than the
        # block, and a single worker.
        second = pool_map(_pid, [1], workers=3)
        third = pool_map(_pid, range(3), workers=2)
        assert pool_map(_pid, [1], workers=1) == [me]
        fourth = pool_map(_pid, range(3), workers=3)
        assert len(children() - before) == 2
    # Share 0 runs in the caller and the rest in exactly workers - 1
    # children, the same ones for every call of the block.
    assert _shares(first) == [[me, 2], [first[2], 2], [first[4], 2]]
    assert len({me, first[2], first[4]}) == 3
    assert second == [me]
    assert third == [me, me, first[2]]
    assert fourth == first[::2]
    assert children() == before


def test_worker_pool_merges_worker_metrics_like_inline_runs():
    def counters(workers):
        with obs.collecting() as registry:
            with worker_pool(workers):
                pool_map(_pid, range(5), workers)
                pool_map(_pid, range(3), workers)
        return registry.deterministic()

    assert counters(2) == counters(1) == {
        "counters": {"pid.calls": 13}, "gauges": {}}


def test_worker_pool_forks_nothing_until_a_pooled_call():
    before = children()
    with worker_pool(2):
        assert pool_map(_pid, [], workers=2) == []
        assert pool_map(_pid, [1, 2], workers=1) == [os.getpid()] * 2
        assert children() == before
        pool_map(_pid, [1, 2], workers=2)
        assert len(children() - before) == 1


def test_worker_pool_leaves_no_child_after_a_worker_raises():
    before = children()
    with pytest.raises(BeatLost, match="beat 3 lost"):
        with worker_pool(2):
            assert pool_map(_square, [1, 2], workers=2) == [1, 4]
            pool_map(_explode_in_child, [1, 2, 3], workers=2)
    assert children() == before
    # The pool is gone: the next call outside the block forks its own.
    assert pool_map(_square, [3, 4], workers=2) == [9, 16]


def test_worker_pool_rejects_zero_workers():
    with pytest.raises(ValueError):
        with worker_pool(0):
            pool_map(_square, [1, 2], workers=2)


def _unpicklable(value):
    return lambda: value


def test_pool_map_reports_an_unpicklable_child_result():
    # The child is alive and replies: this is not a lost worker.
    with pytest.raises(RuntimeError, match="unpicklable reply"):
        pool_map(_unpicklable, [1, 2], workers=2)


def test_a_worker_killed_mid_share_raises_worker_lost():
    # Payloads 2 and 3 are the child's share; they kill their process.
    outcome = run_fresh("""
        from repro.parallel import pool_map

        def work(value):
            if value >= 2:
                kill_self()
            return value

        def run():
            pool_map(work, [0, 1, 2, 3], 2)
    """)
    assert outcome["raised"] == "WorkerLost"
    assert outcome["payloads"] == [2, 3]
    assert "payloads (2, 3)" in outcome["message"]
    assert outcome["seconds"] < 5.0 and outcome["no_child"]


def test_a_worker_killed_between_calls_of_a_block_raises_worker_lost():
    outcome = run_fresh("""
        from repro.parallel import pool_map, worker_pool

        def pid(value):
            return os.getpid()

        def run():
            with worker_pool(2):
                child = pool_map(pid, [0, 1], 2)[1]
                os.kill(child, signal.SIGKILL)
                pool_map(pid, [0, 1], 2)
    """)
    assert outcome["raised"] == "WorkerLost"
    assert outcome["payloads"] == [1]
    assert outcome["seconds"] < 5.0 and outcome["no_child"]


def test_a_raise_in_the_callers_share_reaps_the_children():
    # The child is still busy with its share when the caller's raises.
    outcome = run_fresh("""
        from repro.parallel import pool_map

        class CallerFailed(RuntimeError):
            pass

        def work(value):
            if os.getpid() == MAIN:
                raise CallerFailed(f"payload {value}")
            time.sleep(60)

        def run():
            pool_map(work, [0, 1], 2)
    """)
    assert outcome["raised"] == "CallerFailed"
    assert outcome["message"] == "payload 0"
    assert outcome["seconds"] < 5.0 and outcome["no_child"]
