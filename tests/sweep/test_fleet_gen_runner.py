"""Tests for the heterogeneous-fleet run family (``fleet-gen``)."""

import pytest

from repro.sweep import SPECS, BENCH_SPECS, expand, run_sweep
from repro.sweep.runners import (
    HEADLINE_METRICS,
    RunnerError,
    run_fleet_gen_point,
)

_POINT = {
    "scenario": "dense-ward",
    "suite_seed": 5,
    "suite_count": 4,
    "policy": "balanced",
    "nodes": 4,
    "duration_s": 2.0,
    "seed": 11,
}


def test_fleet_gen_point_reports_heterogeneity_metrics():
    metrics = run_fleet_gen_point(dict(_POINT))
    assert metrics["n_nodes"] == 4
    assert metrics["simulated_s"] == 8.0
    assert metrics["scenario_token"] == "gen:dense-ward:5:4:balanced"
    assert metrics["distinct_families"] >= 1
    assert metrics["mean_floor_mhz"] > 0.0
    assert metrics["repairs"] >= 0
    assert metrics["mean_power_uw"] > 0.0


def test_fleet_gen_point_is_deterministic():
    assert run_fleet_gen_point(dict(_POINT)) == \
        run_fleet_gen_point(dict(_POINT))


def test_fleet_gen_point_derives_seed_from_identity():
    """Points without an explicit seed still reproduce."""
    point = {key: value for key, value in _POINT.items()
             if key != "seed"}
    a = run_fleet_gen_point(dict(point))
    b = run_fleet_gen_point(dict(point))
    assert a == b
    assert a["seed"] != _POINT["seed"]  # derived, not inherited


def test_fleet_gen_point_families_token_narrows_suite():
    point = dict(_POINT, families="pipeline+fork-join")
    metrics = run_fleet_gen_point(point)
    assert metrics["distinct_families"] <= 2


def test_fleet_gen_point_rejects_bad_parameters():
    with pytest.raises(RunnerError):
        run_fleet_gen_point(dict(_POINT, scenario="mars-rover"))
    with pytest.raises(RunnerError):
        run_fleet_gen_point(dict(_POINT, policy="nonsense"))


def test_fleet_gen_campaign_is_registered_and_runs():
    assert "fleet-gen" in SPECS and "fleet-gen" in BENCH_SPECS
    assert HEADLINE_METRICS["fleet-gen"]
    spec = SPECS["fleet-gen"]
    assert len(expand(spec)) == 9  # 3 policies x 3 protocols
    result = run_sweep(spec)
    assert result.n_points == 9
    none_rows = [point for point in result.results
                 if point.point["protocol"] == "none"]
    synced_rows = [point for point in result.results
                   if point.point["protocol"] != "none"]
    assert all(row.metrics["improvement"] == 1.0 for row in none_rows)
    assert all(row.metrics["improvement"] > 1.0 for row in synced_rows)
