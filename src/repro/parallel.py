"""Shared shard-and-merge process helpers.

The embarrassingly parallel layers — the fleet runner
(:mod:`repro.net.fleet`), the streaming executor
(:mod:`repro.net.streaming`) and the sweep engine
(:mod:`repro.sweep.engine`) — follow the same discipline: split work
into contiguous shards, execute them on forked processes (or inline),
and merge results in a fixed order so serial and parallel execution
are indistinguishable.

:func:`pool_map` cuts its payloads into ``workers`` even, contiguous
*shares*.  Shares 1… go pickled, length-prefixed, down one task pipe
per forked child; share 0 runs in the caller meanwhile; then the
replies are read back from one result pipe per child, in child order.
``workers`` thus counts the processes that run shares, the caller
included, and one worker is the zero-child case.  Children live for a
:func:`worker_pool` block, or else for the one call, and every exit
from either kills and reaps them.  A child's own exception is re-raised
as itself; a child that dies reads as EOF on its result pipe (or EPIPE
on its task pipe) and raises :class:`WorkerLost`.

fork is only reliably safe on Linux (macOS lists it, yet forking with
numpy/Accelerate loaded can crash).  Elsewhere every call runs inline,
which the determinism guarantee makes bit-identical.

When metrics collection is active (:mod:`repro.obs`), the caller's
share records straight into the caller's registry, and each child
collects into a fresh registry and ships a snapshot back beside its
results for the caller to merge.  Counters are integers merged by
addition and gauges max-merge, so the merged registry is identical for
any worker count — the property the metrics determinism tests pin
down.  Child start-up is timed as ``parallel.fork``, and pickling,
sending, receiving and unpickling as ``parallel.dispatch``: timings
only, which no determinism gate compares.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import struct
import sys
import time
from contextlib import contextmanager, nullcontext, suppress
from typing import Callable, Iterator, Sequence, TypeVar

from . import obs

Item = TypeVar("Item")
Result = TypeVar("Result")

#: Whether shares may run on forked children (else every call is inline).
_FORK = hasattr(os, "fork") and sys.platform.startswith("linux")

#: A message's length prefix: the byte count of the pickle that follows.
_HEADER = struct.Struct("<Q")


class WorkerLost(RuntimeError):
    """A child process died before replying; names its payload indices."""

    def __init__(self, payloads: Sequence[int]) -> None:
        self.payloads = tuple(payloads)
        super().__init__(self.payloads)

    def __str__(self) -> str:
        return f"worker process lost while running payloads {self.payloads}"


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


def _send(fd: int, message: object) -> None:
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    view = memoryview(_HEADER.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view) :]


def _read(fd: int, size: int) -> bytearray:
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _receive(fd: int) -> object:
    """The next message on ``fd``; ``EOFError`` once its writer is gone."""
    (size,) = _HEADER.unpack(_read(fd, _HEADER.size))
    return pickle.loads(_read(fd, size))


def _serve(tasks: int, results: int) -> None:
    """A child's loop: run each share sent down ``tasks`` until EOF.

    A share carries whether the caller collects metrics; if it does,
    the share records into a fresh registry (replacing the inherited
    one, so each event is collected once) whose snapshot rides back.
    """
    while True:
        try:
            fn, share, observed = _receive(tasks)
        except EOFError:
            return
        obs.deactivate()
        registry = obs.activate() if observed else None
        try:
            values = [fn(payload) for payload in share]
            snapshot = None if registry is None else registry.snapshot()
            reply = (None, values, snapshot)
        except Exception as error:
            reply = (error, None, None)
        try:
            _send(results, reply)
        except Exception as error:  # the reply would not pickle
            _send(results, (RuntimeError(f"unpicklable reply: {error}"),
                            None, None))


class _Children:
    """The forked children of one :func:`worker_pool` block, each a
    ``(pid, task fd, result fd)``, forked as calls first need them."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.live: list[tuple[int, int, int]] = []

    def _fork(self) -> tuple[int, int, int]:
        task_read, task_write = os.pipe()
        result_read, result_write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (task_read, task_write, result_read, result_write):
                os.close(fd)
            raise
        if pid:
            os.close(task_read)
            os.close(result_write)
            return pid, task_write, result_read
        try:  # the child: never returns into the caller's code
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            os.close(task_write)
            os.close(result_read)
            # The siblings' ends are the caller's, not this child's.
            siblings, self.live = self.live, []
            for _, tasks, results in siblings:
                os.close(tasks)
                os.close(results)
            _serve(task_read, result_write)
        finally:
            os._exit(0)

    def close(self) -> None:
        """Kill and reap every child."""
        live, self.live = self.live, []
        for pid, tasks, results in live:
            os.close(tasks)
            os.close(results)
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid, _, _ in live:
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)

    def map(self, fn: Callable, shares: list[list]) -> list:
        """Shares 1… on children, share 0 here; results in share order.

        Any failure leaves the children's pipes in an unknown state,
        so it kills them all; the block's next call forks afresh.
        """
        try:
            if len(self.live) < len(shares) - 1:
                with obs.span("parallel.fork"):
                    while len(self.live) < len(shares) - 1:
                        self.live.append(self._fork())
            registry = obs.active()
            step = len(shares[0])
            lost = [
                range(index * step, index * step + len(share))
                for index, share in enumerate(shares)
            ]
            start = time.perf_counter()
            for (_, tasks, _), share, payloads in zip(
                self.live, shares[1:], lost[1:]
            ):
                try:
                    _send(tasks, (fn, share, registry is not None))
                except BrokenPipeError:
                    raise WorkerLost(payloads) from None
            dispatch = time.perf_counter() - start
            values = [fn(payload) for payload in shares[0]]
            start = time.perf_counter()
            for (_, _, results), payloads in zip(self.live, lost[1:]):
                try:
                    error, share_values, snapshot = _receive(results)
                except EOFError:
                    raise WorkerLost(payloads) from None
                if error is not None:
                    raise error
                if snapshot is not None:
                    registry.merge(snapshot)
                values.extend(share_values)
            obs.observe(
                "parallel.dispatch", dispatch + time.perf_counter() - start
            )
            return values
        except BaseException:
            self.close()
            raise


#: The innermost :func:`worker_pool` block's children.
_block: _Children | None = None


@contextmanager
def worker_pool(workers: int) -> Iterator[None]:
    """Run the block's :func:`pool_map` calls on one set of at most
    ``workers - 1`` children, forked as the block's calls first need
    them (a block that maps nothing, or only inline, forks nothing) and
    killed and reaped on every exit: normal, an exception, or an
    interrupt."""
    global _block
    children = _Children(workers)
    previous, _block = _block, children
    try:
        yield
    finally:
        _block = previous
        children.close()


def pool_map(
    fn: Callable[[Item], Result],
    payloads: Sequence[Item],
    workers: int,
) -> list[Result]:
    """Map a top-level function over payloads on ``workers`` processes.

    The caller runs the first of ``workers`` even, contiguous shares
    and forked children the rest (inside a :func:`worker_pool` block at
    most the block's ``workers``; outside, the call is a block of its
    own).  A call with one share — an empty payload list, a single
    worker, a single payload — or off Linux runs inline: no fork, no
    pickling requirement, metrics straight into the caller's registry.
    Otherwise the function, the children's payloads and their results
    must pickle.

    Raises:
        WorkerLost: a child died before replying.
        ValueError: ``workers`` is below 1.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if _block is not None:
        workers = min(workers, _block.workers)
    shares = shard(payloads, even_shard_size(len(payloads), workers))
    if len(shares) < 2 or not _FORK:
        return [fn(payload) for payload in payloads]
    with nullcontext() if _block else worker_pool(workers):
        return _block.map(fn, shares)
