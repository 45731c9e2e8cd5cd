"""EXP-NET: fleet-level network experiment.

The network analogue of the paper's Table I comparison: one scenario
is simulated once, and every node records *two* error streams from
the same replay — its sync protocol's residual error and the
free-running counterfactual (raw local clock).  Comparing the two
steady-state figures costs a single fleet run; the expensive per-node
ECG/power simulation is never duplicated.

Fleets are no longer limited to the three fixed benchmarks: passing
suite parameters (``suite_seed`` / ``suite_count`` / ``families`` /
``policy``) derives a heterogeneous scenario whose nodes draw
generated applications (:mod:`repro.net.appsource`), and the report
gains per-family / per-policy breakdowns.

The JSON artifact (:func:`net_payload`) is versioned: benchmark-backed
fleets emit ``repro-net/1`` documents, heterogeneous fleets emit
``repro-net/2`` documents that additionally carry per-node app
tokens, mapping policies, clock floors and the group breakdowns.
Both contain *only* deterministic fields — never wall-clock timing —
so two runs of the same configuration produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

from ..net.appsource import BENCHMARK_KIND
from ..net.fleet import (
    DEFAULT_DURATION_S,
    DEFAULT_SEED,
    FleetResult,
    run_fleet,
)
from ..net.node import NodeResult
from ..net.scenarios import generated_scenario
from ..net.stats import SyncError, TierSummary, improvement_ratio
from ..net.streaming import HierarchyResult
from ..store import write_json

#: Default simulated seconds of the network experiment (the fleet
#: runner's own default; re-exported under the experiment's name).
NET_DURATION_S = DEFAULT_DURATION_S

#: Artifact schema tags (v1: benchmark fleets, v2: heterogeneous
#: fleets with per-node app tokens and group breakdowns, v3:
#: hierarchical fleets with per-tier breakdowns and no per-node
#: records — mega-fleets never hold them).
NET_SCHEMA_V1 = "repro-net/1"
NET_SCHEMA_V2 = "repro-net/2"
NET_SCHEMA_V3 = "repro-net/3"

#: Suite defaults of the heterogeneous network experiment.
NET_SUITE_SEED = 7
NET_SUITE_COUNT = 12
NET_SUITE_POLICY = "balanced"


@dataclass(frozen=True)
class NetReport:
    """Synced-vs-free-running comparison of one scenario.

    Attributes:
        scenario: scenario name (or scenario token).
        result: the fleet run (its summary carries both the synced
            and the free-running error statistics).
        seed: fleet seed the run used (recorded for the artifact).
    """

    scenario: str
    result: FleetResult
    seed: int = DEFAULT_SEED

    @property
    def synced(self) -> SyncError:
        """Steady-state error under the scenario's sync protocol."""
        return self.result.summary.steady_sync

    @property
    def unsynced(self) -> SyncError:
        """Steady-state error of the free-running counterfactual."""
        return self.result.summary.steady_unsync

    @property
    def improvement(self) -> float:
        """Steady-state mean |error| ratio, unsynced / synced."""
        return improvement_ratio(self.unsynced.mean_abs_s,
                                 self.synced.mean_abs_s)


def run_net(scenario: str = "drifting-wearables",
            n_nodes: int | None = None,
            duration_s: float = NET_DURATION_S,
            protocol: str | None = None,
            workers: int = 1,
            seed: int = DEFAULT_SEED,
            suite_seed: int | None = None,
            suite_count: int | None = None,
            families: tuple[str, ...] | None = None,
            policy: str | None = None,
            compute: str | None = None,
            compute_cache: str | None = None) -> NetReport:
    """Run one scenario and report synced vs. free-running error.

    Args:
        scenario: preset name or scenario token (see
            :func:`repro.net.scenarios.parse_scenario`).
        n_nodes: fleet size; defaults to the preset's size.
        duration_s: simulated seconds of ECG per node.
        protocol: override the preset's sync protocol.
        workers: worker processes of the fleet runner.
        seed: fleet seed.
        suite_seed: when any suite parameter is given, the scenario
            becomes heterogeneous: nodes draw generated apps from
            this suite instead of the preset's benchmark mix.
        suite_count: generated-suite size (default 12).
        families: topology-family cycle of the suite (default: all).
        policy: mapping policy placing every generated app
            (default ``balanced``).
        compute: ``"exact"`` resolves app compute through the
            deduplicating compute cache; None simulates inline per
            node (the resolver is byte-identical to it).
        compute_cache: on-disk compute-cache root (optional).
    """
    heterogeneous = any(value is not None for value in
                        (suite_seed, suite_count, families, policy))
    if heterogeneous:
        scenario = generated_scenario(
            base=scenario,
            seed=NET_SUITE_SEED if suite_seed is None else suite_seed,
            count=NET_SUITE_COUNT if suite_count is None
            else suite_count,
            policy=NET_SUITE_POLICY if policy is None else policy,
            families=families)
    result = run_fleet(scenario, n_nodes=n_nodes, duration_s=duration_s,
                       seed=seed, protocol=protocol, workers=workers,
                       compute=compute, compute_cache=compute_cache)
    return NetReport(scenario=result.summary.scenario, result=result,
                     seed=seed)


def _json_safe(value: float) -> float | str:
    """JSON has no inf/nan; encode them as strings."""
    if isinstance(value, float) and (
            value != value or value in (float("inf"), float("-inf"))):
        return repr(value)
    return value


def _node_entry(node: NodeResult, heterogeneous: bool) -> dict:
    """The artifact record of one node."""
    entry = {
        "node_id": node.node_id,
        "app": node.app_name,
        "protocol": node.protocol,
        "drift_ppm": node.drift_ppm,
        "bpm": node.bpm,
        "resets": node.resets,
        "beacons_heard": node.beacons_heard,
        "radio_uw": node.radio_uw,
        "power_uw": node.power.total_uw,
        "power": dict(node.power.categories),
        "sync": asdict(node.sync),
        "steady_sync": asdict(node.steady_sync),
        "unsync": asdict(node.unsync),
        "steady_unsync": asdict(node.steady_unsync),
    }
    if heterogeneous:
        entry.update(
            token=node.token,
            family=node.family,
            policy=node.policy,
            floor_mhz=node.floor_mhz,
            repairs=node.repairs,
        )
    return entry


def net_payload(report: NetReport) -> dict:
    """The deterministic JSON document of one network experiment.

    Benchmark fleets keep the ``repro-net/1`` shape; heterogeneous
    fleets (any non-benchmark app source) emit ``repro-net/2`` with
    per-node app identities and the per-family / per-policy blocks.
    """
    summary = report.result.summary
    heterogeneous = summary.source != BENCHMARK_KIND
    payload = {
        "schema": NET_SCHEMA_V2 if heterogeneous else NET_SCHEMA_V1,
        "scenario": summary.scenario,
        "protocol": summary.protocol,
        "seed": report.seed,
        "n_nodes": summary.n_nodes,
        "duration_s": summary.duration_s,
        "total_power_uw": summary.total_power_uw,
        "mean_power_uw": summary.mean_power_uw,
        "mean_radio_uw": summary.mean_radio_uw,
        "beacons_sent": summary.beacons_sent,
        "beacons_heard": summary.beacons_heard,
        "power_loss_resets": summary.power_loss_resets,
        "sync": asdict(summary.sync),
        "steady_sync": asdict(summary.steady_sync),
        "unsync": asdict(summary.unsync),
        "steady_unsync": asdict(summary.steady_unsync),
        "improvement": _json_safe(report.improvement),
        "nodes": [_node_entry(node, heterogeneous)
                  for node in report.result.nodes],
    }
    if heterogeneous:
        payload["source"] = summary.source
        payload["families"] = [asdict(group)
                               for group in summary.families]
        payload["policies"] = [asdict(group)
                               for group in summary.policies]
    return payload


def hierarchy_improvement(result: HierarchyResult) -> float:
    """Steady-state mean |error| ratio of a hierarchical run."""
    summary = result.summary
    return improvement_ratio(summary.steady_unsync.mean_abs_s,
                             summary.steady_sync.mean_abs_s)


def _tier_entry(tier: TierSummary) -> dict:
    """The artifact record of one tier (plus its improvement)."""
    entry = asdict(tier)
    entry["improvement"] = _json_safe(improvement_ratio(
        tier.steady_unsync.mean_abs_s, tier.steady_sync.mean_abs_s))
    return entry


def hierarchy_payload(result: HierarchyResult) -> dict:
    """The deterministic ``repro-net/3`` document of one streaming run.

    A pure function of (spec, seed, duration): wall-clock timing,
    worker counts, wave sizes and resume bookkeeping are all
    excluded, so interrupted-then-resumed runs and any worker count
    emit byte-identical artifacts.  Per-node records are absent by
    design — hierarchical fleets are sized where holding them is the
    exact failure mode the streaming executor removes.
    """
    summary = result.summary
    return {
        "schema": NET_SCHEMA_V3,
        "scenario": result.token,
        "protocol": summary.protocol,
        "seed": result.seed,
        "n_nodes": summary.n_nodes,
        "duration_s": summary.duration_s,
        "subtrees": result.subtrees,
        "total_power_uw": summary.total_power_uw,
        "mean_power_uw": summary.mean_power_uw,
        "mean_radio_uw": summary.mean_radio_uw,
        "beacons_sent": summary.beacons_sent,
        "beacons_heard": summary.beacons_heard,
        "power_loss_resets": summary.power_loss_resets,
        "source": summary.source,
        "sync": asdict(summary.sync),
        "steady_sync": asdict(summary.steady_sync),
        "unsync": asdict(summary.unsync),
        "steady_unsync": asdict(summary.steady_unsync),
        "improvement": _json_safe(hierarchy_improvement(result)),
        "tiers": [_tier_entry(tier) for tier in result.tiers],
    }


def write_hierarchy_json(result: HierarchyResult,
                         path: str | Path) -> Path:
    """Write the hierarchical-fleet artifact; returns its path."""
    return write_json(path, hierarchy_payload(result))


def write_net_json(report: NetReport, path: str | Path) -> Path:
    """Write the network-experiment artifact; returns its path."""
    return write_json(path, net_payload(report))


__all__ = [
    "NET_DURATION_S",
    "NET_SCHEMA_V1",
    "NET_SCHEMA_V2",
    "NET_SCHEMA_V3",
    "NET_SUITE_COUNT",
    "NET_SUITE_POLICY",
    "NET_SUITE_SEED",
    "NetReport",
    "hierarchy_improvement",
    "hierarchy_payload",
    "net_payload",
    "run_net",
    "write_hierarchy_json",
    "write_net_json",
]
