"""Outside-in layer spans for the traced benchmark run.

The benchmark times each layer from outside the program: it rebinds a
layer's public function wherever callers look it up (every ``repro.*``
module namespace that holds it, or the class that owns a method) to a
wrapper that opens a span around the call.  Nothing in ``src/`` knows
about it.

Spans nest on one stack per process.  A span's *self time* is its
duration minus the time its direct child spans cover; the *total* of a
name counts only its outermost occurrence, so a recursive layer is
not counted twice.  Spans opened directly inside a root span (a
workload's entry call) add to :attr:`Tracer.root_covered`, the part of
the run the layers below the entry calls account for; the roots' own
self time is the part they leave uncovered.

Worker processes of :func:`repro.parallel.pool_map` record into a
fresh tracer per payload and ship a snapshot back with the result;
the parent merges snapshots, so layer totals include worker time
(summed over workers, i.e. busy time, not wall time).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator


class Tracer:
    """Per-process span stack plus per-name aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # name -> [calls, total_s, self_s]
        self.layers: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.root_covered = 0.0
        self.roots: set[str] = set()
        self._stack: list[list] = []
        self._open: dict[str, int] = {}

    def begin(self, name: str) -> None:
        """Open a span (must be closed by :meth:`end`)."""
        self._stack.append([name, self.clock(), 0.0])
        self._open[name] = self._open.get(name, 0) + 1

    def end(self) -> float:
        """Close the innermost span; returns its duration."""
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        entry = self.layers.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += duration - children
        self._open[name] -= 1
        if not self._open[name]:
            entry[1] += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_covered += children
            self.roots.add(name)
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context-manager form of :meth:`begin` / :meth:`end`."""
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def add(self, name: str, amount: float = 1) -> None:
        """Increment a counter."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return int(self.layers.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.layers.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.layers.get(name, (0, 0.0, 0.0))[2]

    def snapshot(self) -> dict:
        """Aggregates only (open spans are not part of a snapshot)."""
        return {
            "layers": {k: list(v) for k, v in self.layers.items()},
            "counts": dict(self.counts),
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another process's :meth:`snapshot` into the aggregates."""
        for name, (calls, total, own) in snapshot["layers"].items():
            entry = self.layers.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, amount in snapshot["counts"].items():
            self.add(name, amount)


def coverage(covered_s: float, wall_s: float) -> float:
    """Share of ``wall_s`` that spans cover (0 for an empty wall)."""
    return covered_s / wall_s if wall_s > 0 else 0.0


#: The tracer wrappers record into; ``None`` turns them into plain
#: calls.  Process-global like :mod:`repro.obs`'s registry, because a
#: forked worker must find the tracer without being handed one.
_active: Tracer | None = None


def _wrap(name: str, fn: Callable, hook: Callable | None) -> Callable:
    """A wrapper that opens span ``name`` around each call of ``fn``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _active
        if tracer is None:
            return fn(*args, **kwargs)
        finish = hook(tracer, args, kwargs) if hook is not None else None
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if finish is not None:
            finish(result)
        return result

    return wrapper


def _traced_call(fn: Callable, payload):
    """Run one pool payload under a fresh tracer; ship its snapshot.

    Top-level so it pickles.  The previous tracer is restored, so an
    inline (single-worker) ``pool_map`` keeps the caller's stack.
    """
    global _active
    previous = _active
    _active = Tracer()
    try:
        result = fn(payload)
        return result, _active.snapshot()
    finally:
        _active = previous


def _cpu_children_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _wrap_pool_map(pool_map: Callable) -> Callable:
    """``pool_map`` wrapper: span, worker CPU and worker snapshots."""

    @functools.wraps(pool_map)
    def wrapper(fn, payloads, workers):
        tracer = _active
        if tracer is None:
            return pool_map(fn, payloads, workers)
        cpu = _cpu_children_s()
        tracer.begin("parallel.pool_map")
        try:
            pairs = pool_map(
                functools.partial(_traced_call, fn), payloads, workers
            )
        finally:
            wall = tracer.end()
        tracer.add("parallel.child_cpu_s", _cpu_children_s() - cpu)
        tracer.add("parallel.capacity_s", max(workers, 1) * wall)
        results = []
        for result, snapshot in pairs:
            tracer.merge(snapshot)
            results.append(result)
        return results

    return wrapper


class Patches:
    """Installed wrappers, undone in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def rebind_function(self, module: str, attr: str, wrapper_of) -> None:
        """Rebind ``module.attr`` in every loaded ``repro`` namespace."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = wrapper_of(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def rebind_method(self, module: str, path: str, wrapper_of) -> None:
        """Rebind ``Class.method`` (plain, class- or static method)."""
        class_name, method = path.split(".")
        cls = getattr(importlib.import_module(module), class_name)
        raw = inspect.getattr_static(cls, method)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(wrapper_of(raw.__func__))
        else:
            replacement = wrapper_of(raw)
        self._undo.append((cls, method, raw))
        setattr(cls, method, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def _simulated_seconds(signature: inspect.Signature):
    """Hook: add each ``simulate`` call's simulated seconds."""

    def hook(tracer: Tracer, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.add("sysc.simulate.sim_s", float(bound.arguments["duration_s"]))
        return None

    return hook


def _hw_counters(tracer: Tracer, args, kwargs):
    """Hook: modelled-platform counter deltas of one ``System.run``."""
    system = args[0]

    def snap() -> tuple[int, ...]:
        activity = system.activity()
        return (
            activity.cycles,
            activity.instructions,
            activity.im_xbar.broadcast_merged,
            activity.im_xbar.grants,
            sum(activity.core_gated_cycles),
            activity.sync.point_fires,
        )

    before = snap()

    def finish(result) -> None:
        names = (
            "hw.cycles",
            "hw.instructions",
            "hw.im_merged",
            "hw.im_grants",
            "hw.gated_cycles",
            "hw.sync.point_fires",
        )
        for name, old, new in zip(names, before, snap()):
            tracer.add(name, new - old)

    return finish


def _checkpoint_bytes(tracer: Tracer, args, kwargs):
    """Hook: size of the state file one checkpoint write leaves."""
    path = args[1]

    def finish(result) -> None:
        tracer.add("net.stream.checkpoint.bytes", path.stat().st_size)

    return finish


def install() -> Patches:
    """Wrap every traced layer boundary; returns the undo handle.

    Call after the workload's modules are imported: only namespaces
    loaded at this point are rebound.
    """
    from repro.sysc.engine import simulate

    patches = Patches()
    sim_hook = _simulated_seconds(inspect.signature(simulate))
    functions = (
        ("sysc.simulate", "repro.sysc.engine", "simulate", sim_hook),
        ("net.node.build", "repro.net.node", "build_node", None),
        ("net.hierarchy.hop_error", "repro.net.hierarchy",
         "hop_error_samples", None),
        ("net.hierarchy.build_member", "repro.net.hierarchy",
         "build_member", None),
        ("net.radio.receive", "repro.net.radio", "receive_beacons", None),
        ("isa.assemble", "repro.isa.assembler", "assemble", None),
    )
    for name, module, attr, hook in functions:
        patches.rebind_function(
            module, attr, functools.partial(_wrap, name, hook=hook)
        )
    patches.rebind_function("repro.parallel", "pool_map", _wrap_pool_map)
    methods = (
        ("net.node.sync", "repro.net.node", "NetworkNode._sync_errors",
         None),
        ("net.stats.sync_error", "repro.net.stats", "SyncError.from_samples",
         None),
        ("net.stats.sync_error", "repro.net.stats", "SyncError.merged",
         None),
        ("net.stream.checkpoint.write", "repro.net.streaming",
         "StreamingRunner._write", _checkpoint_bytes),
        ("hw.run", "repro.hw.system", "System.run", _hw_counters),
    )
    for name, module, path, hook in methods:
        patches.rebind_method(
            module, path, functools.partial(_wrap, name, hook=hook)
        )
    return patches


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` the one wrappers record into, for the block."""
    global _active
    previous = _active
    _active = tracer
    try:
        yield tracer
    finally:
        _active = previous
