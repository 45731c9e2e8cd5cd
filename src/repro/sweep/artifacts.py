"""Machine-readable sweep artifacts: the BENCH JSON schema and CSV.

Every benchmark emits one ``BENCH_<name>.json`` document in a single
schema (``repro-bench/1``)::

    {
      "schema": "repro-bench/1",
      "name": "table1",
      "spec": {"name": ..., "runner": ..., "axes": {...}, "base": {...}},
      "points": 6,
      "cache": {"hits": 0, "misses": 6, "stores": 6,
                "fingerprint": "ab12..."},
      "wall_s": 1.84,            # wall-clock of the sweep call
      "executed_wall_s": 1.79,   # summed runner time of the misses
      "simulated_s": 90.0,       # simulated seconds covered
      "sim_s_per_s": 48.9,       # simulated seconds per wall second
      "workers": 2,
      "mode": "parallel",
      "aggregates": {            # percentile axes per headline metric
        "power_uw": {"count": 6, "min": ..., "p50": ..., "p90": ...,
                     "max": ..., "mean": ...},
        ...
      },
      "results": [
        {"point": {...}, "metrics": {...},
         "wall_s": 0.31, "sim_s_per_s": 48.4, "cached": false},
        ...
      ]
    }

``sim_s_per_s`` is the headline throughput figure the CI regression
gate tracks; ``cache.hits`` / ``cache.misses`` make warm and cold runs
distinguishable in the uploaded artifacts.  ``aggregates`` are the
per-campaign *percentile axes*: a five-point summary
(:func:`repro.eval.aggregates.summary_stats`) of every numeric
headline metric of the campaign's run family, so population-scale
campaigns stay comparable without re-reading hundreds of points.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ..eval.aggregates import summary_stats
from .engine import SweepResult
from .runners import HEADLINE_METRICS
from .spec import Value

#: Schema tag of BENCH documents (bump on incompatible changes).
BENCH_SCHEMA = "repro-bench/1"


def _sanitize(value: Value) -> Value:
    """JSON has no inf/nan; encode them as strings."""
    if isinstance(value, float) and (
        value != value or value in (float("inf"), float("-inf"))
    ):
        return repr(value)
    return value


def percentile_axes(result: SweepResult) -> dict[str, dict]:
    """Per-campaign aggregate blocks over the headline metrics.

    Every numeric headline metric of the campaign's run family (see
    :data:`repro.sweep.runners.HEADLINE_METRICS`) is summarised with
    count/min/p50/p90/max/mean over all points that report it.
    Non-numeric metrics (statuses, names) and metrics absent from
    every point are skipped, so the block never changes shape under
    partial failures.
    """
    axes: dict[str, dict] = {}
    for key in HEADLINE_METRICS.get(result.spec.runner, ()):
        values = []
        for point in result.results:
            value = point.metrics.get(key)
            numeric = isinstance(value, (int, float))
            if numeric and not isinstance(value, bool):
                values.append(value)
        if values:
            axes[key] = {
                stat: _sanitize(value)
                for stat, value in summary_stats(values).items()
            }
    return axes


def bench_payload(result: SweepResult) -> dict:
    """The BENCH document of one sweep result."""
    return {
        "aggregates": percentile_axes(result),
        "schema": BENCH_SCHEMA,
        "name": result.spec.name,
        "spec": result.spec.as_dict(),
        "points": result.n_points,
        "cache": {
            "hits": result.cache_hits,
            "misses": result.cache_misses,
            "stores": result.cache_stores,
            "fingerprint": result.fingerprint,
        },
        "wall_s": result.elapsed_s,
        "executed_wall_s": result.executed_wall_s,
        "simulated_s": result.simulated_s,
        "sim_s_per_s": result.sim_s_per_s,
        "workers": result.workers,
        "mode": result.mode,
        "results": [
            {
                "point": point.point,
                "metrics": {
                    key: _sanitize(value)
                    for key, value in point.metrics.items()
                },
                "wall_s": point.wall_s,
                "sim_s_per_s": point.sim_s_per_s,
                "cached": point.cached,
            }
            for point in result.results
        ],
    }


def sweep_rows(
    result: SweepResult,
) -> tuple[list[str], list[list[Value]]]:
    """Flatten a sweep into (header, rows) for CSV/tabular output.

    Columns are the union of point parameters (in first-seen order)
    followed by the union of metric keys, then the per-point timing
    columns.  Missing cells are empty.
    """
    param_cols: list[str] = []
    metric_cols: list[str] = []
    for point in result.results:
        for key in point.point:
            if key not in param_cols:
                param_cols.append(key)
        for key in point.metrics:
            if key not in metric_cols:
                metric_cols.append(key)
    header = param_cols + metric_cols + ["wall_s", "sim_s_per_s", "cached"]
    rows = []
    for point in result.results:
        row: list[Value] = [point.point.get(col, "") for col in param_cols]
        row.extend(
            _sanitize(point.metrics.get(col, "")) for col in metric_cols
        )
        row.extend([point.wall_s, point.sim_s_per_s, point.cached])
        rows.append(row)
    return header, rows


def write_csv(result: SweepResult, path: str | Path) -> Path:
    """Write the flat CSV table of one sweep; return its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header, rows = sweep_rows(result)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def merge_bench(payloads: dict[str, dict]) -> dict:
    """Merge per-bench BENCH documents into one ``BENCH_all`` document.

    Totals are summed; the aggregate ``sim_s_per_s`` is total
    simulated seconds over total wall seconds (not a mean of ratios).
    """
    wall = sum(payload["wall_s"] for payload in payloads.values())
    simulated = sum(payload["simulated_s"] for payload in payloads.values())
    return {
        "schema": BENCH_SCHEMA,
        "name": "all",
        "points": sum(payload["points"] for payload in payloads.values()),
        "cache": {
            "hits": sum(
                payload["cache"]["hits"] for payload in payloads.values()
            ),
            "misses": sum(
                payload["cache"]["misses"] for payload in payloads.values()
            ),
            "stores": sum(
                payload["cache"].get("stores", 0)
                for payload in payloads.values()
            ),
        },
        "wall_s": wall,
        "simulated_s": simulated,
        "sim_s_per_s": simulated / wall if wall > 0 else 0.0,
        "benches": payloads,
    }
