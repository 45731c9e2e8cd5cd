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

import argparse
from dataclasses import asdict, dataclass
from pathlib import Path

from ..gen.policies import POLICIES
from ..gen.topology import FAMILY_ORDER
from ..net.appsource import BENCHMARK_KIND
from ..net.fleet import (
    DEFAULT_DURATION_S,
    DEFAULT_SEED,
    FleetResult,
    run_fleet,
)
from ..net.hierarchy import HIERARCHIES
from ..net.node import NodeResult
from ..net.scenarios import SCENARIOS, generated_scenario
from ..net.stats import (
    FleetSummary,
    SyncError,
    TierSummary,
    improvement_ratio,
)
from ..net.streaming import (
    DEFAULT_WAVE_SUBTREES,
    HierarchyResult,
    run_streaming,
)
from ..net.timesync import PROTOCOLS
from ..store import write_json
from .cli import add_duration, add_metrics, nonnegative_int, positive_int
from .table1 import format_cell

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



_NET_ROWS: tuple[tuple[str, str, str, str], ...] = (
    # (row label, "no sync" attribute path, protocol attribute path,
    # format) — same row-driven layout as Table I, so both reports
    # format through :func:`repro.eval.table1.format_cell`.  Power and
    # radio rows repeat the same value: the fleets are identical, only
    # the estimator differs.
    ("Mean node power (uW)", "mean_power_uw", "mean_power_uw", "f1"),
    ("Radio power (uW)", "mean_radio_uw", "mean_radio_uw", "f2"),
    ("Beacons sent", "beacons_sent", "beacons_sent", "int"),
    ("Beacons heard", "beacons_heard", "beacons_heard", "int"),
    ("Power-loss resets", "power_loss_resets", "power_loss_resets",
     "int"),
    ("Sync err mean (ms)", "unsync.mean_abs_s", "sync.mean_abs_s", "ms"),
    ("Sync err RMS (ms)", "unsync.rms_s", "sync.rms_s", "ms"),
    ("Steady err mean (ms)", "steady_unsync.mean_abs_s",
     "steady_sync.mean_abs_s", "ms"),
    ("Steady err max (ms)", "steady_unsync.max_abs_s",
     "steady_sync.max_abs_s", "ms"),
)


def _summary_value(summary: FleetSummary, path: str) -> float:
    value = summary
    for attr in path.split("."):
        value = getattr(value, attr)
    return value


def _breakdown_block(title: str, groups) -> list[str]:
    """One per-group table of a heterogeneous fleet summary."""
    lines = [f"  {title} (nodes, floor MHz, power uW, steady err ms):"]
    for group in groups:
        lines.append(
            f"    {group.name:<14}"
            f"{group.nodes:4d}"
            f"{group.mean_floor_mhz:8.2f}"
            f"{group.mean_power_uw:8.1f}"
            f"{group.steady_sync.mean_abs_s * 1e3:8.2f}")
    return lines


def render_net(report: NetReport) -> str:
    """Render the network experiment as a two-column comparison.

    Benchmark fleets keep the historical byte-exact layout;
    heterogeneous fleets (generated-suite or mixed app sources)
    additionally get per-family and per-policy breakdown blocks.
    """
    summary = report.result.summary
    lines = [
        f"Network: {report.scenario} "
        f"({summary.n_nodes} nodes, {summary.duration_s:g} s, "
        f"{report.result.workers} worker(s), {report.result.mode})",
        "  " + "Metric".ljust(24)
        + "no sync".rjust(12) + summary.protocol.rjust(12),
    ]
    lines.append("  " + "-" * 46)
    for label, unsync_path, sync_path, kind in _NET_ROWS:
        scale = 1e3 if kind == "ms" else 1.0
        fmt = "f2" if kind == "ms" else kind
        lines.append(
            "  " + label.ljust(24)
            + format_cell(_summary_value(summary, unsync_path) * scale,
                   fmt).rjust(12)
            + format_cell(_summary_value(summary, sync_path) * scale,
                   fmt).rjust(12))
    lines.append(f"  steady-state error reduced {report.improvement:.1f}x "
                 f"by {summary.protocol}")
    if summary.source != BENCHMARK_KIND:
        lines.extend(_breakdown_block("per-family breakdown",
                                      summary.families))
        lines.extend(_breakdown_block("per-policy breakdown",
                                      summary.policies))
    if report.result.compute is not None:
        lines.append(_compute_line(report.result.compute))
    lines.append(
        f"  throughput: {report.result.nodes_per_second:.1f} nodes/s "
        f"({report.result.elapsed_s:.2f} s)")
    return "\n".join(lines)


def _compute_line(compute) -> str:
    """One-line account of the fleet's compute resolution."""
    return (f"  compute: {compute.requests} request(s) over "
            f"{compute.distinct_keys} distinct unit(s)")


def render_hierarchy(result: HierarchyResult) -> str:
    """Render a hierarchical streaming run with per-tier breakdown.

    Reuses the network experiment's row layout (the fleet-wide
    summary *is* a :class:`FleetSummary`), then adds the per-tier
    block — each tier's single-hop error next to its effective error
    against the backbone — and the streaming bookkeeping (waves,
    resume state, peak RSS).
    """
    summary = result.summary
    lines = [
        f"Hierarchy: {result.token} "
        f"({summary.n_nodes} nodes, {len(result.tiers)} tier(s), "
        f"{summary.duration_s:g} s, {result.workers} worker(s), "
        f"{result.mode})",
        "  " + "Metric".ljust(24)
        + "no sync".rjust(12) + "tiered".rjust(12),
    ]
    lines.append("  " + "-" * 46)
    for label, unsync_path, sync_path, kind in _NET_ROWS:
        scale = 1e3 if kind == "ms" else 1.0
        fmt = "f2" if kind == "ms" else kind
        lines.append(
            "  " + label.ljust(24)
            + format_cell(_summary_value(summary, unsync_path) * scale,
                   fmt).rjust(12)
            + format_cell(_summary_value(summary, sync_path) * scale,
                   fmt).rjust(12))
    lines.append(
        f"  steady-state error reduced {hierarchy_improvement(result):.1f}x "
        f"across {len(result.tiers)} hop(s)")
    lines.append("  per-tier breakdown (nodes, proto, period s, "
                 "hop err ms, eff err ms):")
    for tier in result.tiers:
        lines.append(
            f"    {tier.name:<12}"
            f"{tier.nodes:8d}  "
            f"{tier.protocol:<6}"
            f"{tier.beacon_period_s:6.1f}"
            f"{tier.steady_hop_sync.mean_abs_s * 1e3:8.2f}"
            f"{tier.steady_sync.mean_abs_s * 1e3:8.2f}")
    if result.resumed_subtrees:
        lines.append(
            f"  resumed {result.resumed_subtrees} subtree(s) from "
            f"checkpoint")
    if not result.completed:
        lines.append(
            f"  partial: {result.subtrees_done}/{result.subtrees} "
            f"subtree(s) folded - rerun with the same checkpoint dir "
            f"to finish")
    lines.append(
        f"  waves: {result.waves_run}/{result.waves} wave(s) x "
        f"{result.wave_size} subtree(s)")
    if result.compute is not None:
        lines.append(_compute_line(result.compute))
    lines.append(
        f"  throughput: {result.nodes_per_second:.1f} nodes/s "
        f"({result.elapsed_s:.2f} s, peak rss {result.peak_rss_mb:.0f} MB)")
    return "\n".join(lines)


def add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    """The fleet flags ``net`` shares with ``all``."""
    parser.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default=None,
        help="fleet scenario (default: drifting-wearables)")
    parser.add_argument(
        "--nodes", type=nonnegative_int, default=None,
        help="fleet size (default: the scenario preset)")
    parser.add_argument(
        "--protocol", choices=sorted(PROTOCOLS), default=None,
        help="override the scenario's sync protocol")
    parser.add_argument(
        "--workers", type=positive_int, default=1,
        help="worker processes of the fleet runner (default: 1)")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"fleet seed (default: {DEFAULT_SEED})")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_duration(parser, f"{NET_DURATION_S:g} s")
    add_metrics(parser)
    add_fleet_arguments(parser)
    parser.add_argument(
        "--suite-seed", type=int, default=None, metavar="SEED",
        help="draw each node's app from a generated suite with this "
             f"seed (default when any suite flag is given: "
             f"{NET_SUITE_SEED})")
    parser.add_argument(
        "--suite-count", type=positive_int, default=None, metavar="N",
        help=f"generated-suite size (default: {NET_SUITE_COUNT})")
    parser.add_argument(
        "--families", nargs="+", choices=list(FAMILY_ORDER),
        default=None, metavar="FAMILY",
        help="topology families of the generated suite "
             f"(default: all of {', '.join(FAMILY_ORDER)})")
    parser.add_argument(
        "--policy", choices=sorted(POLICIES), default=None,
        help="mapping policy placing every generated app "
             f"(default: {NET_SUITE_POLICY})")
    parser.add_argument(
        "--compute-cache", default=None, metavar="DIR",
        help="on-disk compute-cache root shared across runs "
             "(default: $REPRO_COMPUTE_CACHE, else in-process only)")
    parser.add_argument(
        "--tiers", default=None, metavar="SPEC",
        help="run a hierarchical fleet instead: preset name "
             f"({', '.join(sorted(HIERARCHIES))}) or a "
             "'tiers:<proto@<period>x<fan>[~<scale>]/...>:<base>' "
             "token")
    parser.add_argument(
        "--stream", action="store_true",
        help="run the hierarchy through the streaming executor in "
             f"bounded-memory waves (default: "
             f"{DEFAULT_WAVE_SUBTREES} subtrees/wave)")
    parser.add_argument(
        "--wave", type=positive_int, default=None, metavar="N",
        help="tier-0 subtrees per wave (implies --stream)")
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist the partial merge after every wave; a rerun "
             "with the same spec resumes from it (implies --stream)")
    parser.add_argument(
        "--max-waves", type=positive_int, default=None, metavar="N",
        help="stop after N waves - the deterministic kill point the "
             "resume checks use (implies --stream)")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the deterministic repro-net/1|2 artifact here "
             "(repro-net/3 with --tiers; skipped while a --max-waves "
             "run is incomplete)")


def run_command(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> str:
    """``python -m repro.eval net``: a flat fleet, or ``--tiers``.

    A flat fleet dedupes app compute through the shared cache; a
    hierarchy streams in waves when any streaming flag is given.
    """
    duration = NET_DURATION_S if args.duration is None else args.duration
    streaming = args.stream or any(
        value is not None
        for value in (args.wave, args.checkpoint_dir, args.max_waves))
    if args.tiers is None:
        if streaming:
            parser.error(
                "--stream/--wave/--checkpoint-dir/--max-waves need "
                "--tiers")
        report = run_net(
            scenario=args.scenario or "drifting-wearables",
            n_nodes=args.nodes, duration_s=duration,
            protocol=args.protocol, workers=args.workers, seed=args.seed,
            suite_seed=args.suite_seed, suite_count=args.suite_count,
            families=tuple(args.families) if args.families else None,
            policy=args.policy, compute="exact",
            compute_cache=args.compute_cache)
        if args.json is not None:
            write_net_json(report, args.json)
        return render_net(report)
    flat = [flag for flag, value in (
        ("--scenario", args.scenario),
        ("--nodes", args.nodes),
        ("--protocol", args.protocol),
        ("--suite-seed", args.suite_seed),
        ("--suite-count", args.suite_count),
        ("--families", args.families),
        ("--policy", args.policy),
    ) if value is not None]
    if flat:
        parser.error(f"--tiers conflicts with {', '.join(flat)}")
    wave = args.wave if args.wave is not None else (
        DEFAULT_WAVE_SUBTREES if streaming else None)
    result = run_streaming(
        args.tiers, duration_s=duration, seed=args.seed,
        workers=args.workers, wave_size=wave,
        checkpoint_dir=args.checkpoint_dir, max_waves=args.max_waves,
        compute_cache=args.compute_cache)
    if args.json is not None and result.completed:
        write_hierarchy_json(result, args.json)
    return render_hierarchy(result)

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
    "render_hierarchy",
    "render_net",
    "run_net",
    "write_hierarchy_json",
    "write_net_json",
]
