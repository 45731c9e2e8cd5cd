"""Sharded, cached execution of sweep campaigns.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec` into
its deduplicated point list, resolves as many points as possible from
the :class:`~repro.sweep.cache.ResultCache`, and executes the misses
with :func:`repro.parallel.pool_map` using the same shard-and-merge
discipline as :class:`repro.net.fleet.FleetRunner`: contiguous batches
of points go to the caller and its forked children, and results merge
back in point order — so serial and parallel sweeps produce identical
result sequences (wall-clock fields aside).

Every executed point is stored back into the cache, which makes
re-runs and incremental sweeps (a grown axis, a few new points) cost
only the new work.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..parallel import even_shard_size, pool_map, shard
from .cache import ResultCache
from .runners import get_runner
from .spec import SweepSpec, Value, expand, point_key


@dataclass(frozen=True)
class PointResult:
    """Outcome of one sweep point.

    Attributes:
        index: position in the expanded point list.
        point: the run parameters.
        key: content-address of the point (cache key).
        metrics: runner output (flat JSON scalars).
        wall_s: wall-clock seconds the runner took when it actually
            executed (for cache hits: the stored original timing).
        cached: whether the result came from the cache.
    """

    index: int
    point: dict[str, Value]
    key: str
    metrics: dict[str, Value]
    wall_s: float
    cached: bool

    @property
    def simulated_s(self) -> float:
        """Simulated seconds this point covered."""
        return float(self.metrics.get("simulated_s", 0.0) or 0.0)

    @property
    def sim_s_per_s(self) -> float:
        """Simulated seconds per wall second of the original run."""
        if self.wall_s <= 0.0:
            return 0.0
        return self.simulated_s / self.wall_s


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one :func:`run_sweep` call.

    Attributes:
        spec: the campaign that ran.
        results: per-point results, in expansion order.
        elapsed_s: wall-clock seconds of this call (cache lookups,
            execution and merging included).
        cache_hits: points served from the cache.
        cache_misses: points actually executed.
        workers: processes that ran point batches, the caller
            included (1 = serial).
        shards: executed point batches.
        mode: ``"serial"`` or ``"parallel"``.
        fingerprint: code fingerprint the results are keyed under
            (empty when caching is disabled).
        cache_stores: executed points written back to the cache (0
            when caching is disabled).
    """

    spec: SweepSpec
    results: tuple[PointResult, ...]
    elapsed_s: float
    cache_hits: int
    cache_misses: int
    workers: int
    shards: int
    mode: str
    fingerprint: str
    cache_stores: int = 0

    @property
    def n_points(self) -> int:
        """Points in the campaign after deduplication."""
        return len(self.results)

    @property
    def simulated_s(self) -> float:
        """Total simulated seconds across all points."""
        return sum(result.simulated_s for result in self.results)

    @property
    def executed_wall_s(self) -> float:
        """Summed runner wall time of the points that executed."""
        return sum(
            result.wall_s for result in self.results if not result.cached
        )

    @property
    def sim_s_per_s(self) -> float:
        """Simulated-seconds/sec over this call's elapsed wall time."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.simulated_s / self.elapsed_s


def _execute_point(
    runner_name: str, point: dict[str, Value]
) -> tuple[dict[str, Value], float]:
    """Run one point, returning (metrics, runner wall seconds)."""
    runner = get_runner(runner_name)
    with obs.span("sweep.point") as span:
        metrics = runner(point)
    return metrics, span.elapsed_s


def _run_shard(payload: tuple) -> list[tuple[int, dict, float]]:
    """Execute one batch of points (top-level: must pickle)."""
    runner_name, batch = payload
    results = []
    for index, point in batch:
        metrics, wall_s = _execute_point(runner_name, point)
        results.append((index, metrics, wall_s))
    return results


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    cache: ResultCache | None = None,
    use_cache: bool = True,
    force: bool = False,
    shard_size: int | None = None,
) -> SweepResult:
    """Execute a sweep campaign.

    Args:
        spec: the campaign to run.
        workers: processes for cache misses, the caller included;
            1 executes inline.
        cache: result cache; a default-rooted one is created when
            ``use_cache`` is true and none is given.
        use_cache: disable all cache reads *and* writes when false.
        force: ignore cached entries (results are still written back,
            refreshing the cache).
        shard_size: points per worker batch; defaults to an even split
            of the misses across workers.

    Raises:
        repro.sweep.runners.RunnerError: unknown run family.
        repro.sweep.spec.SpecError: malformed spec.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    get_runner(spec.runner)  # validate the family before any work
    run_span = obs.span("sweep.run").start()
    if use_cache and cache is None:
        cache = ResultCache()
    elif not use_cache:
        cache = None

    points = expand(spec)
    keys = [point_key(spec.runner, point) for point in points]
    slots: list[PointResult | None] = [None] * len(points)
    misses: list[tuple[int, dict[str, Value]]] = []
    for index, (point, key) in enumerate(zip(points, keys)):
        entry = None
        if cache is not None and not force:
            entry = cache.get(spec.runner, point)
        if entry is None:
            misses.append((index, point))
        else:
            slots[index] = PointResult(
                index=index,
                point=point,
                key=key,
                metrics=entry["metrics"],
                wall_s=float(entry.get("wall_s", 0.0)),
                cached=True,
            )

    if shard_size is None:
        shard_size = even_shard_size(len(misses), workers)
    shards = shard(misses, shard_size)
    payloads = [(spec.runner, batch) for batch in shards]

    parallel = workers > 1 and len(shards) > 1
    workers_used = min(workers, len(shards)) if parallel else 1
    batches = pool_map(_run_shard, payloads, workers_used)

    stores = 0
    for batch in batches:
        for index, metrics, wall_s in batch:
            point = points[index]
            if cache is not None:
                cache.put(spec.runner, point, metrics, wall_s)
                stores += 1
            slots[index] = PointResult(
                index=index,
                point=point,
                key=keys[index],
                metrics=metrics,
                wall_s=wall_s,
                cached=False,
            )

    results = tuple(slot for slot in slots if slot is not None)
    assert len(results) == len(points)
    obs.add("sweep.runs")
    obs.add("sweep.points", len(points))
    obs.add("sweep.points.executed", len(misses))
    return SweepResult(
        spec=spec,
        results=results,
        elapsed_s=run_span.stop(),
        cache_hits=len(points) - len(misses),
        cache_misses=len(misses),
        workers=workers_used,
        shards=len(shards),
        mode="parallel" if parallel else "serial",
        fingerprint=cache.fingerprint if cache is not None else "",
        cache_stores=stores,
    )
