"""Tests for the shared shard-and-merge multiprocessing helpers."""

import multiprocessing
import os

import pytest

from repro import obs
from repro.parallel import even_shard_size, pool_map, shard, worker_pool


def _square(value):
    return value * value


class BeatLost(RuntimeError):
    """Domain-flavoured worker failure with a payload-carrying arg."""


def _explode(value):
    raise BeatLost(f"beat {value} lost")


def _explode_observed(value):
    obs.add("exploded.before", 1)
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


def test_pool_map_rejects_zero_workers():
    with pytest.raises(ValueError):
        pool_map(_square, [1], workers=0)


def test_pool_map_worker_raise_propagates_original_exception():
    # The pool re-raises the worker's own exception class in the
    # parent — not a pickling wrapper — with its message intact.
    with pytest.raises(BeatLost, match=r"beat \d lost"):
        pool_map(_explode, [1, 2, 3], workers=2)


def test_pool_map_inline_raise_propagates_original_exception():
    with pytest.raises(BeatLost, match="beat 1 lost"):
        pool_map(_explode, [1], workers=1)


def test_pool_map_worker_raise_leaves_no_orphaned_registry():
    # A failing pooled run must not leak worker-local registries into
    # the parent: the caller's registry stays active through the
    # failure and deactivates normally with the context.
    with obs.collecting() as registry:
        with pytest.raises(BeatLost):
            pool_map(_explode_observed, [1, 2], workers=2)
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
        pool_map(_explode, [1, 2], workers=2)
    assert obs.active() is None


def test_pool_map_outside_a_block_forks_a_pool_per_call():
    first = set(pool_map(_pid, range(4), workers=2))
    second = set(pool_map(_pid, range(4), workers=2))
    assert not first & second
    assert os.getpid() not in first | second
    assert multiprocessing.active_children() == []


def test_worker_pool_serves_every_call_of_the_block():
    with worker_pool(2):
        first = pool_map(_pid, range(4), workers=2)
        # Fewer payloads than workers, and fewer workers than the pool.
        second = pool_map(_pid, [1], workers=2)
        third = pool_map(_pid, range(3), workers=2)
        assert pool_map(_pid, [1], workers=1) == [os.getpid()]
    pids = set(first + second + third)
    assert len(pids) <= 2 and os.getpid() not in pids
    assert multiprocessing.active_children() == []


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
    with worker_pool(2):
        assert pool_map(_pid, [], workers=2) == []
        assert pool_map(_pid, [1, 2], workers=1) == [os.getpid()] * 2
        assert multiprocessing.active_children() == []
        pool_map(_pid, [1, 2], workers=2)
        assert len(multiprocessing.active_children()) == 2


def test_worker_pool_leaves_no_child_after_a_worker_raises():
    with pytest.raises(BeatLost, match=r"beat \d lost"):
        with worker_pool(2):
            assert pool_map(_square, [1, 2], workers=2) == [1, 4]
            pool_map(_explode, [1, 2, 3], workers=2)
    assert multiprocessing.active_children() == []
    # The pool is gone: the next call outside the block forks its own.
    assert pool_map(_square, [3, 4], workers=2) == [9, 16]


def test_worker_pool_rejects_zero_workers():
    with pytest.raises(ValueError):
        with worker_pool(0):
            pool_map(_square, [1, 2], workers=2)
