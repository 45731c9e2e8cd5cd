"""Shared shard-and-merge multiprocessing helpers.

Both embarrassingly parallel layers — the fleet runner
(:mod:`repro.net.fleet`) and the sweep engine
(:mod:`repro.sweep.engine`) — follow the same discipline: split work
into contiguous shards, execute them on a :mod:`multiprocessing` pool
(or inline), and merge results in a fixed order so serial and parallel
execution are indistinguishable.  The platform-sensitive policy (fork
on Linux, the platform default elsewhere) lives here, once.

When metrics collection is active (:mod:`repro.obs`), worker payloads
are wrapped so each worker collects into its own fresh registry and
ships a snapshot back beside its result; the parent merges snapshots
in payload index order.  Counters are integers merged by addition and
gauges max-merge, so the merged registry is identical for any worker
count — the property the metrics determinism tests pin down.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, Sequence, TypeVar

from . import obs

Item = TypeVar("Item")
Result = TypeVar("Result")


def shard(items: Sequence[Item], shard_size: int) -> list[list[Item]]:
    """Split items into contiguous batches of at most ``shard_size``."""
    if shard_size < 1:
        raise ValueError("shard size must be positive")
    return [
        list(items[start : start + shard_size])
        for start in range(0, len(items), shard_size)
    ]


def even_shard_size(count: int, workers: int) -> int:
    """The batch size that spreads ``count`` items evenly."""
    return max(1, math.ceil(count / workers)) if count else 1


def _observed(payload: tuple) -> tuple:
    """Run one wrapped payload under a fresh worker-local registry.

    Top-level so it pickles under spawn.  Under fork the worker
    *inherits* the parent's active registry; activating a fresh one
    here replaces it, so worker events are collected exactly once —
    in the worker — and merged exactly once — in the parent.
    """
    fn, item = payload
    registry = obs.activate()
    try:
        result = fn(item)
    finally:
        obs.deactivate()
    return result, registry.snapshot()


#: The innermost :func:`worker_pool` block: ``[workers]``, then with its pool.
_shared: list | None = None


@contextmanager
def worker_pool(workers: int) -> Iterator[None]:
    """Run the block's pooled :func:`pool_map` calls on one pool of
    ``workers`` processes, forked at the first such call (a block that
    maps nothing, or only inline, forks nothing) and torn down on
    exit, an exception included."""
    global _shared
    previous, _shared = _shared, [workers]
    try:
        yield
    finally:
        for pool in _shared[1:]:
            pool.terminate()
            pool.join()
        _shared = previous


def pool_map(
    fn: Callable[[Item], Result],
    payloads: Sequence[Item],
    workers: int,
) -> list[Result]:
    """Map a picklable top-level function over payloads on a pool.

    Empty payload lists and single-worker calls never touch
    :mod:`multiprocessing`: fully cached sweeps over generated apps
    (zero surviving points) and serial runs execute inline, with no
    pool start-up cost and no pickling requirement.  Inline execution
    records metrics (when collection is active) straight into the
    caller's registry; pooled execution wraps each payload through
    :func:`_observed` and merges the returned snapshots in payload
    index order.  Inside a :func:`worker_pool` block the call runs on
    the block's pool; outside, it is a block of its own.

    fork is the cheap path but is only reliably safe on Linux (macOS
    lists it as available, yet forking with numpy/Accelerate loaded
    can crash); elsewhere use the platform default (spawn) — payloads
    must be picklable either way.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if not payloads:
        return []
    if workers == 1:
        return [fn(payload) for payload in payloads]
    with nullcontext() if _shared else worker_pool(workers):
        if len(_shared) == 1:
            use_fork = (
                sys.platform.startswith("linux")
                and "fork" in multiprocessing.get_all_start_methods()
            )
            ctx = multiprocessing.get_context("fork" if use_fork else None)
            _shared.append(ctx.Pool(processes=_shared[0]))
        registry = obs.active()
        if registry is None:
            return _shared[1].map(fn, payloads)
        wrapped = _shared[1].map(
            _observed, [(fn, payload) for payload in payloads]
        )
    results = []
    for result, snapshot in wrapped:
        registry.merge(snapshot)
        results.append(result)
    return results
