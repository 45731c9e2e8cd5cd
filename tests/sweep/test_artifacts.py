"""Tests for BENCH artifacts, CSV output and the regression gate."""

import csv
import json
import sys
from pathlib import Path

from repro.sweep import (
    BENCH_SCHEMA,
    ResultCache,
    SweepSpec,
    bench_payload,
    merge_bench,
    percentile_axes,
    run_bench,
    run_sweep,
    sweep_rows,
    write_csv,
)
from repro.store import write_json

sys.path.insert(0, str(Path(__file__).resolve().parents[2]
                       / "benchmarks"))
from check_regression import check, update_baseline  # noqa: E402

TINY = SweepSpec(
    name="tiny",
    runner="app",
    axes=(("mode", ("single-core", "multi-core")),),
    base=(("app", "3L-MF"), ("duration_s", 1.0)),
)


def _result():
    return run_sweep(TINY)


def test_bench_payload_schema_fields():
    payload = bench_payload(_result())
    assert payload["schema"] == BENCH_SCHEMA
    assert payload["name"] == "tiny"
    assert payload["points"] == 2
    assert payload["cache"] == {
        "hits": 0, "misses": 2, "stores": 0, "fingerprint": "",
    }
    assert payload["simulated_s"] == 2.0
    assert payload["sim_s_per_s"] > 0
    assert len(payload["results"]) == 2
    assert payload["spec"]["axes"] == {
        "mode": ["single-core", "multi-core"],
    }
    # the document must be JSON-serialisable as-is
    json.dumps(payload)


def test_bench_payload_percentile_axes():
    """Per-campaign aggregate blocks cover the headline metrics."""
    result = _result()
    payload = bench_payload(result)
    axes = payload["aggregates"]
    assert axes == percentile_axes(result)
    assert "power_uw" in axes and "clock_mhz" in axes
    block = axes["power_uw"]
    assert set(block) == {"count", "min", "p50", "p90", "max", "mean"}
    assert block["count"] == 2
    assert block["min"] <= block["p50"] <= block["p90"] <= block["max"]
    values = sorted(point.metrics["power_uw"]
                    for point in result.results)
    assert block["min"] == values[0] and block["max"] == values[-1]
    # non-numeric headline metrics (e.g. gen's `status`) are skipped
    json.dumps(axes)


def test_percentile_axes_skip_absent_and_non_numeric_metrics():
    from repro.sweep.engine import PointResult, SweepResult

    spec = SweepSpec(name="t", runner="gen",
                     axes=(("policy", ("paper",)),))
    results = (
        PointResult(index=0, point={"policy": "paper"}, key="k0",
                    metrics={"status": "ok", "power_uw": 10.0},
                    wall_s=0.1, cached=False),
        PointResult(index=1, point={"policy": "paper"}, key="k1",
                    metrics={"status": "rejected"},
                    wall_s=0.1, cached=False),
    )
    result = SweepResult(
        spec=spec, results=results, elapsed_s=0.2, cache_hits=0,
        cache_misses=2, workers=1, shards=1, mode="serial",
        fingerprint="")
    axes = percentile_axes(result)
    assert "status" not in axes  # strings never aggregate
    assert axes["power_uw"]["count"] == 1  # absent values skipped


def test_write_bench_json(tmp_path):
    path = write_json(tmp_path / "BENCH_tiny.json", bench_payload(_result()))
    loaded = json.loads(path.read_text())
    assert loaded["schema"] == BENCH_SCHEMA
    assert loaded["results"][0]["cached"] is False


def test_sweep_rows_and_csv(tmp_path):
    result = _result()
    header, rows = sweep_rows(result)
    assert header[:3] == ["app", "duration_s", "mode"]
    assert "power_uw" in header
    assert header[-3:] == ["wall_s", "sim_s_per_s", "cached"]
    assert len(rows) == 2
    path = write_csv(result, tmp_path / "tiny.csv")
    with path.open() as handle:
        parsed = list(csv.reader(handle))
    assert parsed[0] == header
    assert len(parsed) == 3


def test_merge_bench_sums_totals():
    a = bench_payload(_result())
    b = bench_payload(_result())
    merged = merge_bench({"a": a, "b": b})
    assert merged["points"] == 4
    assert merged["cache"]["misses"] == 4
    assert merged["simulated_s"] == 4.0
    assert set(merged["benches"]) == {"a", "b"}


def test_run_bench_writes_named_artifact(tmp_path):
    cache = ResultCache(root=tmp_path / "cache", fingerprint="f1")
    payload, path = run_bench("table1", out_dir=tmp_path, cache=cache)
    assert path == tmp_path / "BENCH_table1.json"
    assert path.exists()
    assert payload["points"] == 6
    # second emission is served from the cache
    warm, _ = run_bench("table1", out_dir=tmp_path, cache=cache)
    assert warm["cache"]["hits"] == 6


def test_regression_gate_passes_and_fails():
    merged = merge_bench({"tiny": bench_payload(_result())})
    baseline = update_baseline(merged)
    floor = baseline["sim_s_per_s"]["tiny"]
    assert floor > 0
    assert check(merged, baseline) == []
    # a 10x faster floor must trip the gate
    tight = {"sim_s_per_s": {"tiny": floor * 1000.0}}
    failures = check(merged, tight)
    assert failures and "tiny" in failures[0]
    # missing bench is reported
    assert check({"benches": {}}, baseline)
    # warm measurements are rejected: sim_s_per_s would be meaningless
    warm = bench_payload(_result())
    warm["cache"]["hits"] = 2
    failures = check(merge_bench({"tiny": warm}), baseline)
    assert failures and "cache hit" in failures[0]


def test_regression_gate_holds_the_loc_ceiling():
    merged = {"benches": {}, "loc": 1000}
    baseline = update_baseline(merged)
    assert baseline["loc"] == 1000
    assert check(merged, baseline) == []
    failures = check(dict(merged, loc=1001), baseline)
    assert failures == [
        "loc: 1001 source line(s) > ceiling 1000 (raise it in "
        "baseline.json only on purpose)"
    ]
    del merged["loc"]
    assert check(merged, baseline) == ["loc: missing from BENCH_all.json"]
