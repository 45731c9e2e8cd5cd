"""Sharded execution of node fleets over forked processes.

The fleet problem is embarrassingly parallel *by construction*: the
reference node's beacon schedule is precomputed once from the fleet
seed, after which every node is a pure function of
``(scenario, seed, node id, schedule)`` — no inter-process
communication during the run.  :class:`FleetRunner` shards the node-id
range into batches, executes them either inline or with
:func:`repro.parallel.pool_map` (the first share in the caller, the
rest in forked children), then merges per-node results in node-id
order.  Because the merge order is fixed and every random draw comes
from named per-node streams, serial and parallel execution produce
**bit-identical** :class:`~repro.net.stats.FleetSummary` values — the
property the determinism tests pin down.

Wall-clock timing (elapsed seconds, nodes/second) is reported on
:class:`FleetResult`, *outside* the deterministic summary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..parallel import even_shard_size, pool_map, shard
from ..power.energy import sum_left
from .compute import (
    ComputeSummary,
    record_compute_counters,
    report_from_payload,
    resolve,
    simulate_request,
)
from .node import (
    REFERENCE_NODE_ID,
    NetworkNode,
    NodeResult,
    build_node,
    error_grid,
)
from .radio import Beacon, beacon_schedule
from .scenarios import SCENARIOS, Scenario, parse_scenario, with_protocol
from .stats import SYNC_FIELDS, FleetSummary, GroupStats, SyncError

#: Default fleet seed (the paper's year).
DEFAULT_SEED = 2014

#: Default simulated seconds per node (shorter than the single-node
#: experiments' 60 s: fleet cost is per-node work × fleet size).
DEFAULT_DURATION_S = 10.0


@dataclass(frozen=True)
class FleetConfig:
    """One fleet run: a scenario instantiated at a size and seed.

    Attributes:
        scenario: deployment description (see
            :mod:`repro.net.scenarios`).
        n_nodes: fleet size, including the reference node (0 is
            allowed and yields an empty summary).
        duration_s: simulated seconds of ECG per node.
        seed: fleet seed; all per-node streams derive from it.
        compute: resolve app compute through
            :func:`repro.net.compute.resolve` (False = simulate inline
            per node, the legacy path).
        compute_cache: the resolver's on-disk cache root (None = the
            :data:`~repro.net.compute.COMPUTE_CACHE_ENV` root, if set).
    """

    scenario: Scenario
    n_nodes: int
    duration_s: float = DEFAULT_DURATION_S
    seed: int = DEFAULT_SEED
    compute: bool = False
    compute_cache: str | None = None


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one :meth:`FleetRunner.run` call.

    Attributes:
        summary: deterministic aggregate (identical across serial and
            parallel execution for the same config).
        nodes: per-node results, ordered by node id.
        elapsed_s: wall-clock seconds the node simulations took.
        nodes_per_second: throughput over ``elapsed_s``.
        workers: processes that ran shards, the caller included
            (1 = serial).
        shards: number of node batches executed.
        mode: ``"serial"`` or ``"parallel"``.
        compute: compute-resolution account (None = legacy inline
            simulation).
    """

    summary: FleetSummary
    nodes: tuple[NodeResult, ...]
    elapsed_s: float
    nodes_per_second: float
    workers: int
    shards: int
    mode: str
    compute: ComputeSummary | None = None


def _run_shard(payload: tuple) -> list[NodeResult]:
    """One pass over a batch of node ids (top-level: must pickle): build
    each node once, resolve the batch's compute (inline, or through the
    resolver's memo and caches), then replay and fold the batch."""
    config, node_ids, beacons, sample_times, ref_readings = payload
    with obs.span("net.fleet.build"):
        nodes = [
            build_node(
                config.scenario, node_id, config.seed, config.duration_s
            )
            for node_id in node_ids
        ]
    with obs.span("net.compute.resolve"):
        requests = [node.compute_request() for node in nodes]
        if config.compute:
            table = resolve(requests, config.compute_cache)
            computes = [
                (report_from_payload(table[r.key]), r.key) for r in requests
            ]
        else:
            computes = [(simulate_request(r), "") for r in requests]
    results = NetworkNode._sync_errors(
        nodes, computes, beacons, sample_times, ref_readings
    )
    obs.add("net.node.simulations", len(results))
    heard = sum(node.beacons_heard for node in results)
    if heard:
        obs.add("net.node.beacons_heard", heard)
    return results


class FleetRunner:
    """Executes a :class:`FleetConfig` serially or on forked processes."""

    def __init__(self, config: FleetConfig) -> None:
        if config.n_nodes < 0:
            raise ValueError("fleet size cannot be negative")
        if config.duration_s <= 0:
            raise ValueError("duration must be positive")
        self.config = config

    def _schedule(self) -> tuple[list[Beacon], list[float], list[float]]:
        """Precompute beacons, error-sample times and ref readings."""
        config = self.config
        if config.n_nodes == 0:
            return [], [], []
        reference = build_node(
            config.scenario, REFERENCE_NODE_ID, config.seed, config.duration_s
        )
        beacons = beacon_schedule(
            config.scenario.beacon_period_s, config.duration_s, reference.clock
        )
        sample_times, _ = error_grid(config.duration_s)
        ref_readings = [reference.clock.read(t) for t in sample_times]
        return beacons, sample_times, ref_readings

    def run(self, workers: int = 1) -> FleetResult:
        """Simulate the whole fleet.

        Args:
            workers: processes that run shards, the caller
                included; 1 executes inline.  Nodes split into
                contiguous shards of ``ceil(n_nodes / workers)``; the
                last shard may be shorter, and workers left without a
                shard are never forked.
        """
        if workers < 1:
            raise ValueError("need at least one worker")
        config = self.config
        node_ids = list(range(config.n_nodes))
        shards = shard(node_ids, even_shard_size(len(node_ids), workers))
        beacons, sample_times, ref_readings = self._schedule()
        parallel = workers > 1 and len(shards) > 1
        workers_used = min(workers, len(shards)) if parallel else 1
        obs.add("net.fleet.runs")
        obs.add("net.fleet.nodes", config.n_nodes)
        # Each shard resolves its own compute inside the timed window:
        # reported throughput always includes the compute work.
        span = obs.span("net.fleet.run").start()
        payloads = [
            (config, ids, beacons, sample_times, ref_readings)
            for ids in shards
        ]
        batches = pool_map(_run_shard, payloads, workers_used)
        elapsed = span.stop()
        # Shards are contiguous and merge in payload order: node order.
        results = [node for batch in batches for node in batch]
        compute = None
        if config.compute and results:
            keys = {node.compute_key for node in results}
            compute = ComputeSummary(len(results), len(keys))
            record_compute_counters(compute)

        return FleetResult(
            summary=self._aggregate(results, beacons),
            nodes=tuple(results),
            elapsed_s=elapsed,
            nodes_per_second=(len(results) / elapsed if elapsed > 0 else 0.0),
            workers=workers_used,
            shards=len(shards),
            mode="parallel" if parallel else "serial",
            compute=compute,
        )

    @staticmethod
    def _group_stats(
        results: list[NodeResult], key
    ) -> tuple[GroupStats, ...]:
        """Per-group aggregates over a node grouping key, name order."""
        groups: dict[str, list[NodeResult]] = {}
        for node in results:
            groups.setdefault(key(node), []).append(node)
        stats = []
        for name in sorted(groups):
            members = groups[name]
            power = sum_left(node.power.total_uw for node in members)
            floor = sum_left(node.floor_mhz for node in members)
            stats.append(
                GroupStats(
                    name=name,
                    nodes=len(members),
                    mean_power_uw=power / len(members),
                    mean_floor_mhz=floor / len(members),
                    repairs=sum(node.repairs for node in members),
                    steady_sync=SyncError.merged(
                        [node.steady_sync for node in members]
                    ),
                )
            )
        return tuple(stats)

    def _aggregate(
        self, results: list[NodeResult], beacons: list[Beacon]
    ) -> FleetSummary:
        """Merge per-node results (already sorted by node id)."""
        config = self.config
        n = len(results)
        total_power = sum_left(node.power.total_uw for node in results)
        total_radio = sum_left(node.radio_uw for node in results)
        # The reference's errors are empty, so they merge away.
        errors = {
            name: SyncError.merged([getattr(node, name) for node in results])
            for name in SYNC_FIELDS
        }
        return FleetSummary(
            scenario=config.scenario.name,
            protocol=config.scenario.protocol,
            n_nodes=n,
            duration_s=config.duration_s,
            total_power_uw=total_power,
            mean_power_uw=total_power / n if n else 0.0,
            mean_radio_uw=total_radio / n if n else 0.0,
            **errors,
            beacons_sent=len(beacons) if n else 0,
            beacons_heard=sum(node.beacons_heard for node in results),
            power_loss_resets=sum(node.resets for node in results),
            source=config.scenario.apps.kind,
            families=self._group_stats(
                results, lambda node: node.family or node.app_name
            ),
            policies=self._group_stats(
                results, lambda node: node.policy or "paper"
            ),
        )


def run_fleet(
    scenario: str | Scenario,
    n_nodes: int | None = None,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = DEFAULT_SEED,
    protocol: str | None = None,
    workers: int = 1,
    compute: str | None = None,
    compute_cache: str | None = None,
) -> FleetResult:
    """Convenience wrapper: resolve a scenario and run it once.

    Args:
        scenario: preset name, a ``gen:...`` scenario token (see
            :func:`repro.net.scenarios.parse_scenario`) or an
            explicit :class:`Scenario`.
        n_nodes: fleet size; defaults to the scenario's preset size.
        duration_s: simulated seconds per node.
        seed: fleet seed.
        protocol: override the scenario's sync protocol (e.g.
            ``"none"`` for the unsynchronized baseline).
        workers: processes, the caller included (1 = serial).
        compute: ``"exact"`` to resolve app compute through the fleet
            fast path (None = inline simulation per node; ``"exact"``
            is byte-identical to it).
        compute_cache: on-disk compute-cache root (used when
            ``compute`` is ``"exact"``).

    Raises:
        ValueError: unknown scenario name — rejected here at the
            entry point, with the valid preset names listed — or an
            unknown ``compute`` mode.
    """
    if isinstance(scenario, str):
        # Fail fast with the full choice list instead of letting an
        # unknown name surface deep inside node construction.
        scenario = parse_scenario(scenario)
    elif not isinstance(scenario, Scenario):
        raise ValueError(
            f"scenario must be a name or Scenario, got "
            f"{type(scenario).__name__!r}; names: {sorted(SCENARIOS)}"
        )
    scenario = with_protocol(scenario, protocol)
    if compute not in (None, "exact"):
        raise ValueError(f"unknown compute mode {compute!r}; use 'exact'")
    config = FleetConfig(
        scenario=scenario,
        n_nodes=scenario.default_nodes if n_nodes is None else n_nodes,
        duration_s=duration_s,
        seed=seed,
        compute=compute == "exact",
        compute_cache=compute_cache,
    )
    return FleetRunner(config).run(workers=workers)
