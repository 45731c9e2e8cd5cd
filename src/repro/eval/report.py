"""Text rendering of the reproduced tables and figures.

Every experiment driver returns structured results; this module turns
them into the same rows/series the paper reports, with the paper's
numbers alongside for comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..net.appsource import BENCHMARK_KIND
from ..net.stats import FleetSummary, SyncError
from ..net.streaming import HierarchyResult
from ..power.energy import CATEGORIES
from .ablations import AblationResult
from .aggregates import summary_stats
from ..cover.fuzz import FuzzReport
from ..cover.model import ADVERSARIAL_POINTS, DIMENSIONS
from .fig6 import Fig6Group
from .fig7 import Fig7Point
from .genexp import GenReport
from .netexp import NetReport, hierarchy_improvement
from .searchexp import SearchReport
from .table1 import PAPER_TABLE1, Table1Column

if TYPE_CHECKING:  # imported lazily inside render_sweep (no cycle)
    from ..sweep.engine import SweepResult

__all__ = [
    "FleetSummary",
    "SyncError",
    "render_ablations",
    "render_cover",
    "render_fig6",
    "render_fig7",
    "render_gen",
    "render_hierarchy",
    "render_net",
    "render_search",
    "render_sweep",
    "render_table1",
]

_TABLE1_ROWS: tuple[tuple[str, str, str], ...] = (
    # (row label, dict key or pair, format)
    ("Active Cores", "active_cores", "int"),
    ("Active IM banks", "sc_im_banks/mc_im_banks", "int"),
    ("Active DM banks", "sc_dm_banks/mc_dm_banks", "int"),
    ("IM Broadcast (%)", "im_broadcast", "pct"),
    ("DM Broadcast (%)", "dm_broadcast", "pct"),
    ("Min. Clock (MHz)", "sc_clock/mc_clock", "f1"),
    ("Min. Voltage (V)", "sc_voltage/mc_voltage", "f2"),
    ("Code Overhead (%)", "code_overhead", "pct"),
    ("Run-time Overhead (%)", "runtime_overhead", "pct"),
    ("Avg. Power (uW)", "sc_power/mc_power", "f1"),
    ("Saving (%)", "saving", "pct"),
)


def _fmt(value: float, kind: str) -> str:
    if kind == "int":
        return f"{int(round(value))}"
    if kind == "pct":
        return f"{value * 100:.2f}"
    if kind == "f1":
        return f"{value:.1f}"
    return f"{value:.2f}"


def render_table1(columns: list[Table1Column],
                  include_paper: bool = True) -> str:
    """Render Table I in the paper's layout (SC and MC per benchmark)."""
    header = ["Metric".ljust(24)]
    for column in columns:
        header.append(f"{column.benchmark} SC".rjust(12))
        header.append(f"{column.benchmark} MC".rjust(12))
    lines = ["  ".join(header), "-" * len("  ".join(header))]
    data = {column.benchmark: column.as_dict() for column in columns}
    for label, key, kind in _TABLE1_ROWS:
        row = [label.ljust(24)]
        for column in columns:
            values = data[column.benchmark]
            if "/" in key:
                sc_key, mc_key = key.split("/")
                row.append(_fmt(values[sc_key], kind).rjust(12))
                row.append(_fmt(values[mc_key], kind).rjust(12))
            else:
                shared = ("-", _fmt(values[key], kind))
                if key == "active_cores":
                    shared = ("1", _fmt(values[key], kind))
                row.append(shared[0].rjust(12))
                row.append(shared[1].rjust(12))
        lines.append("  ".join(row))
    if include_paper:
        lines.append("")
        lines.append("Paper Table I (MC power / saving): " + ", ".join(
            f"{name}: {vals['mc_power']:.1f} uW / "
            f"{vals['saving'] * 100:.1f}%"
            for name, vals in PAPER_TABLE1.items()))
    return "\n".join(lines)


def render_fig6(groups: list[Fig6Group]) -> str:
    """Render Figure 6 as stacked numeric columns per configuration."""
    lines = ["Figure 6: power decomposition (uW)"]
    for group in groups:
        lines.append(f"\n== {group.benchmark}")
        lines.append(
            "  component       " + "SC".rjust(9)
            + "MC(no sync)".rjust(13) + "MC(sync)".rjust(10))
        for name in CATEGORIES:
            lines.append(
                f"  {name:<15}"
                + f"{group.single.categories.get(name, 0.0):9.2f}"
                + f"{group.multi_no_sync.categories.get(name, 0.0):13.2f}"
                + f"{group.multi_sync.categories.get(name, 0.0):10.2f}")
        lines.append(
            "  total          "
            + f"{group.single.total_uw:9.2f}"
            + f"{group.multi_no_sync.total_uw:13.2f}"
            + f"{group.multi_sync.total_uw:10.2f}")
        sign = group.no_sync_vs_single
        verdict = "lower" if sign < -0.02 else \
            "higher" if sign > 0.02 else "comparable"
        lines.append(f"  MC without sync is {verdict} than SC "
                     f"({sign * 100:+.1f} %)")
    return "\n".join(lines)


def render_fig7(points: list[Fig7Point]) -> str:
    """Render Figure 7 as a table of the two curves + reduction."""
    lines = [
        "Figure 7: RP-CLASS power vs. proportion of abnormal heartbeats",
        "  ratio    SC (uW)   SC f/V         MC (uW)   reduction",
    ]
    for point in points:
        sc_op = point.single.operating_point
        lines.append(
            f"  {point.ratio * 100:4.0f} %"
            f"{point.sc_power_uw:10.1f}"
            f"   {sc_op.frequency_mhz:4.2f} MHz/{sc_op.voltage:.2f} V"
            f"{point.mc_power_uw:10.1f}"
            f"{point.reduction * 100:10.1f} %")
    lines.append("Paper: 17 % reduction at 0 %, growing to ~38 % "
                 "in the best case.")
    return "\n".join(lines)


_NET_ROWS: tuple[tuple[str, str, str, str], ...] = (
    # (row label, "no sync" attribute path, protocol attribute path,
    # format) — same row-driven layout as Table I, so both reports
    # format through :func:`_fmt`.  Power and radio rows repeat the
    # same value: the fleets are identical, only the estimator
    # differs.
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
            + _fmt(_summary_value(summary, unsync_path) * scale,
                   fmt).rjust(12)
            + _fmt(_summary_value(summary, sync_path) * scale,
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
            + _fmt(_summary_value(summary, unsync_path) * scale,
                   fmt).rjust(12)
            + _fmt(_summary_value(summary, sync_path) * scale,
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


def _sweep_cell(value) -> str:
    """Format one sweep-table cell compactly."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_sweep(result: "SweepResult", max_rows: int = 48) -> str:
    """Render a sweep as a compact table: axes, headline metrics, cache.

    Columns are the spec's axes plus the run family's headline
    metrics (see :data:`repro.sweep.runners.HEADLINE_METRICS`) plus
    per-point wall time and cache status.  Long sweeps are elided
    after ``max_rows`` rows.
    """
    from ..sweep.runners import HEADLINE_METRICS

    spec = result.spec
    axes = list(spec.axis_names)
    metrics = [
        key
        for key in HEADLINE_METRICS.get(spec.runner, ())
        if any(key in point.metrics for point in result.results)
    ]
    header = axes + metrics + ["wall_s", "cached"]
    table: list[list[str]] = [header]
    for point in result.results[:max_rows]:
        row = [_sweep_cell(point.point.get(axis, "")) for axis in axes]
        row.extend(
            _sweep_cell(point.metrics.get(key, "")) for key in metrics
        )
        row.append(f"{point.wall_s:.3f}")
        row.append("hit" if point.cached else "run")
        table.append(row)
    widths = [
        max(len(row[col]) for row in table)
        for col in range(len(header))
    ]
    lines = [
        f"Sweep {spec.name!r} ({spec.runner} runner): "
        f"{result.n_points} point(s), {result.workers} worker(s), "
        f"{result.mode}"
    ]
    if spec.description:
        lines.append(f"  {spec.description}")
    lines.append(
        "  "
        + "  ".join(
            cell.rjust(width) for cell, width in zip(header, widths)
        )
    )
    lines.append("  " + "-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in table[1:]:
        lines.append(
            "  "
            + "  ".join(
                cell.rjust(width) for cell, width in zip(row, widths)
            )
        )
    elided = result.n_points - (len(table) - 1)
    if elided > 0:
        lines.append(f"  ... {elided} more point(s) elided")
    lines.append(
        f"  cache: {result.cache_hits} hit(s), "
        f"{result.cache_misses} miss(es), "
        f"{result.cache_stores} store(s)"
        + (f" [{result.fingerprint}]" if result.fingerprint else
           " (disabled)")
    )
    lines.append(
        f"  throughput: {result.sim_s_per_s:.1f} simulated-s/s "
        f"({result.simulated_s:g} sim-s in {result.elapsed_s:.2f} s)"
    )
    return "\n".join(lines)


#: Fixed column layout of the generated-workload table: (header,
#: width, record attribute, format kind for :func:`_fmt`).  Golden
#: tests pin this set; extend deliberately.
_GEN_COLUMNS: tuple[tuple[str, int, str, str], ...] = (
    ("app", 18, "app", "str"),
    ("family", 12, "family", "str"),
    ("policy", 14, "policy", "str"),
    ("status", 9, "status", "str"),
    ("clock", 7, "clock_mhz", "f2"),
    ("V", 6, "voltage", "f2"),
    ("duty", 6, "duty_cycle", "f2"),
    ("power", 8, "power_uw", "f1"),
    ("sync%", 7, "sync_overhead", "pct"),
    ("banks", 6, "im_banks", "int"),
)


def _policy_power_summary(report: GenReport) -> list[str]:
    """Per-policy placement rates and power percentiles.

    The reject/repair rates are the standing per-policy metric the
    adversarial-graph-shapes follow-up tracks
    (:func:`repro.gen.explorer.policy_rates`); the power percentiles
    cover the placed points.
    """
    rates = report.policy_rates()
    lines = ["  per-policy placements and power (uW):"]
    for policy in report.policies:
        rows = [record for record in report.records
                if record.policy == policy]
        placed = [record.power_uw for record in rows
                  if record.status != "rejected"]
        rate = rates[policy]
        label = (f"    {policy:<15}{len(placed):3d} placed  "
                 f"reject {rate['reject_rate'] * 100:5.1f}%  "
                 f"repair {rate['repair_rate'] * 100:5.1f}%")
        if placed:
            stats = summary_stats(placed)
            lines.append(
                f"{label}   p50 {stats['p50']:.1f}  "
                f"p90 {stats['p90']:.1f}  max {stats['max']:.1f}")
        else:
            lines.append(f"{label}   (no placed points)")
    return lines


def render_gen(report: GenReport, max_rows: int = 48) -> str:
    """Render a generated-workload exploration as a fixed table.

    Args:
        report: the exploration to render.
        max_rows: per-record rows shown before eliding (population
            sweeps run to hundreds of apps; the per-policy percentile
            summary below the table always covers every record).
    """
    lines = [
        f"Generated workloads: seed {report.seed}, "
        f"{report.count} app(s) x {len(report.policies)} policy(ies), "
        f"{report.num_cores} cores, {report.duration_s:g} s"
    ]
    header = "  " + "".join(
        title.ljust(width) if kind == "str" else title.rjust(width)
        for title, width, _, kind in _GEN_COLUMNS)
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for record in report.records[:max_rows]:
        cells = []
        for _, width, attr, kind in _GEN_COLUMNS:
            value = getattr(record, attr)
            if kind == "str":
                cells.append(str(value).ljust(width))
            elif record.status == "rejected":
                cells.append("-".rjust(width))
            else:
                cells.append(_fmt(value, kind).rjust(width))
        lines.append("  " + "".join(cells).rstrip())
    elided = len(report.records) - max_rows
    if elided > 0:
        lines.append(f"  ... {elided} more record(s) elided")
    counts = report.counts()
    lines.append(
        f"  placements: {counts['ok']} ok, "
        f"{counts['repaired']} repaired, {counts['rejected']} rejected")
    powered = [record.power_uw for record in report.records
               if record.status != "rejected"]
    if powered:
        lines.append(
            f"  power across placed points: {min(powered):.1f}-"
            f"{max(powered):.1f} uW")
    if report.records:
        lines.extend(_policy_power_summary(report))
    return "\n".join(lines)


def render_cover(report: FuzzReport) -> str:
    """Render a coverage campaign: marginals, coverpoints, outcomes.

    The layout is fixed (golden tests pin it): the headline, the
    cross-bin count, one marginal row per dimension with its missing
    labels, one line per adversarial coverpoint, and the outcome
    tallies.
    """
    coverage = report.coverage
    covered = coverage.covered()
    lines = [
        f"Coverage {report.mode}: seed {report.seed}, "
        f"{len(report.attempts)}/{report.budget} attempt(s), "
        f"{len(report.policies)} policy(ies), "
        f"{report.num_cores} cores, {report.duration_s:g} s"
    ]
    bins_line = f"  bins: {len(covered)}/{len(coverage.space)} covered"
    if report.saturated:
        bins_line += " (saturated)"
    unexpected = coverage.unexpected()
    if unexpected:
        bins_line += f", {len(unexpected)} outside the model"
    lines.append(bins_line)
    lines.append(f"  {'dimension':<10} {'hit':>5}  missing")
    lines.append("  " + "-" * 38)
    hit_labels: list[set[str]] = [set() for _ in DIMENSIONS]
    for key in covered:
        for axis, label in enumerate(key.split("/")):
            hit_labels[axis].add(label)
    for dimension, hit in zip(DIMENSIONS, hit_labels):
        missing = " ".join(label for label in dimension.labels
                           if label not in hit)
        row = f"  {dimension.name:<10} " \
              f"{f'{len(hit)}/{len(dimension.labels)}':>5}"
        lines.append(f"{row}  {missing}".rstrip())
    adversarial = coverage.adversarial_hits()
    for name in ADVERSARIAL_POINTS:
        hits = adversarial[name]
        if hits:
            lines.append(
                f"  adversarial {name}: {hits} hit(s), first "
                f"{coverage.adversarial_first(name)}")
        else:
            lines.append(f"  adversarial {name}: not hit")
    outcomes = ", ".join(
        f"{report.status_counts.get(status, 0)} {status}"
        for status in ("ok", "repaired", "rejected", "screened"))
    lines.append(f"  outcomes: {outcomes}")
    return "\n".join(lines)


#: Fixed column layout of the placement-search table: (header, width,
#: value picker kind, format kind).  Golden tests pin this set.
_SEARCH_COLUMNS: tuple[tuple[str, int, str, str], ...] = (
    ("app", 18, "app", "str"),
    ("family", 12, "family", "str"),
    ("status", 9, "status", "str"),
    ("start", 14, "start_policy", "str"),
    ("paper", 9, "paper_cost", "f2"),
    ("best", 9, "best_cost", "f2"),
    ("gap%", 7, "gap", "pct"),
    ("evals", 7, "evaluations", "int"),
    ("banks", 6, "im_banks", "int"),
    ("cores", 6, "active_cores", "int"),
)


def render_search(report: SearchReport, max_rows: int = 48) -> str:
    """Render a placement-search campaign as a fixed table.

    One row per application: the paper-policy cost, the best-found
    cost and the gap between them, plus the search effort (oracle
    evaluations actually paid) and the footprint of the best
    placement.  A gap percentile summary covers every outcome even
    when rows are elided.
    """
    lines = [
        f"Placement search: seed {report.seed}, "
        f"{report.count} app(s), {report.algorithm}/{report.cost}, "
        f"{report.iterations} iteration(s), {report.num_cores} cores, "
        f"{report.duration_s:g} s/eval"
    ]
    header = "  " + "".join(
        title.ljust(width) if kind == "str" else title.rjust(width)
        for title, width, _, kind in _SEARCH_COLUMNS)
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for outcome in report.outcomes[:max_rows]:
        cells = []
        for _, width, attr, kind in _SEARCH_COLUMNS:
            if attr in ("im_banks", "active_cores"):
                value = outcome.best_metrics.get(attr, 0)
            else:
                value = getattr(outcome, attr)
            rejected = outcome.status == "rejected"
            no_paper = attr == "paper_cost" and not outcome.paper_feasible
            if kind == "str":
                cells.append(str(value).ljust(width))
            elif rejected or no_paper:
                cells.append("-".rjust(width))
            else:
                cells.append(_fmt(value, kind).rjust(width))
        lines.append("  " + "".join(cells).rstrip())
    elided = len(report.outcomes) - max_rows
    if elided > 0:
        lines.append(f"  ... {elided} more outcome(s) elided")
    counts = report.counts()
    lines.append(
        f"  placements: {counts['ok']} ok, "
        f"{counts['repaired']} repaired, {counts['rejected']} rejected")
    gaps = report.gap_summary()
    if gaps["count"]:
        lines.append(
            f"  gap over {gaps['count']} placed app(s): "
            f"p50 {gaps['p50'] * 100:.2f} %, "
            f"p90 {gaps['p90'] * 100:.2f} %, "
            f"max {gaps['max'] * 100:.2f} %")
    return "\n".join(lines)


def render_ablations(results: list[AblationResult]) -> str:
    """Render the ablation outcomes."""
    lines = ["Ablations: power with / without each mechanism (uW)"]
    for result in results:
        lines.append(
            f"  {result.name}  {result.description:<52} "
            f"{result.with_feature_uw:7.1f} /{result.without_feature_uw:7.1f}"
            f"   (+{result.penalty_fraction * 100:.1f} % without)")
    return "\n".join(lines)
