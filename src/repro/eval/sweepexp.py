"""``python -m repro.eval sweep``: run a declarative campaign, render it.

The campaign runs through :mod:`repro.sweep` (cached, sharded) and can
emit the ``BENCH`` JSON and CSV artifacts.
"""

from __future__ import annotations

import argparse
import json

from ..store import write_json
from ..sweep import (
    SPECS,
    ResultCache,
    bench_payload,
    get_spec,
    run_sweep,
    spec_from_mapping,
    write_csv,
)
from ..sweep.engine import SweepResult
from ..sweep.runners import HEADLINE_METRICS
from .aggregates import MAX_ROWS
from .cli import add_metrics, positive_int


def _sweep_cell(value) -> str:
    """Format one sweep-table cell compactly."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_sweep(result: SweepResult) -> str:
    """Render a sweep as a compact table: axes, headline metrics, cache.

    Columns are the spec's axes plus the run family's headline
    metrics (see :data:`repro.sweep.runners.HEADLINE_METRICS`) plus
    per-point wall time and cache status.  Long sweeps are elided
    after :data:`MAX_ROWS` rows.
    """
    spec = result.spec
    axes = list(spec.axis_names)
    metrics = [
        key
        for key in HEADLINE_METRICS.get(spec.runner, ())
        if any(key in point.metrics for point in result.results)
    ]
    header = axes + metrics + ["wall_s", "cached"]
    table: list[list[str]] = [header]
    for point in result.results[:MAX_ROWS]:
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


def add_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--spec", choices=sorted(SPECS), default="demo",
        help="built-in campaign to run (default: demo)")
    source.add_argument(
        "--spec-file", default=None, metavar="FILE",
        help="JSON file holding a sweep spec "
             "(see repro.sweep.spec_from_mapping)")
    parser.add_argument(
        "--workers", type=positive_int, default=1,
        help="worker processes for cache misses (default: 1)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_SWEEP_CACHE "
             "or ~/.cache/repro-sweep)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable cache reads and writes")
    parser.add_argument(
        "--force", action="store_true",
        help="re-execute every point (results refresh the cache)")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the BENCH JSON artifact here")
    parser.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the flat CSV table here")
    parser.add_argument(
        "--list", action="store_true",
        help="list built-in campaigns and exit")
    add_metrics(parser)


def run_command(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> str:
    """Run the selected campaign (or list them); the rendered table."""
    if args.list:
        return "\n".join(
            f"{name:<12} {SPECS[name].description}"
            for name in sorted(SPECS))
    if args.spec_file is not None:
        with open(args.spec_file, encoding="utf-8") as handle:
            spec = spec_from_mapping(json.load(handle))
    else:
        spec = get_spec(args.spec)
    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    result = run_sweep(spec, workers=args.workers, cache=cache,
                       force=args.force)
    if args.json is not None:
        write_json(args.json, bench_payload(result))
    if args.csv is not None:
        write_csv(result, args.csv)
    return render_sweep(result)
