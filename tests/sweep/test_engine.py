"""Tests for the sweep engine: execution, caching, determinism."""

import pytest

from repro.sweep import (
    ResultCache,
    RunnerError,
    SweepSpec,
    run_sweep,
)
from repro.sweep.cache import CACHE_ENV
from repro.sweep.runners import run_platform_adc_point

#: A small app-family grid (4 points, ~1 s of simulated ECG each).
SMALL = SweepSpec(
    name="small",
    runner="app",
    axes=(
        ("app", ("3L-MF", "3L-MMD")),
        ("mode", ("single-core", "multi-core")),
    ),
    base=(("duration_s", 1.0),),
)


def test_run_sweep_executes_every_point(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    result = run_sweep(SMALL, cache=cache)
    assert result.n_points == 4
    assert result.cache_misses == 4 and result.cache_hits == 0
    assert result.cache_stores == 4  # every miss refilled the cache
    assert result.mode == "serial"
    for point in result.results:
        assert point.metrics["power_uw"] > 0
        assert point.simulated_s == 1.0
        assert not point.cached
    assert result.simulated_s == 4.0
    assert result.fingerprint == "f1"


def test_second_run_hits_cache_and_matches(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    cold = run_sweep(SMALL, cache=cache)
    warm = run_sweep(SMALL, cache=cache)
    assert warm.cache_hits == 4 and warm.cache_misses == 0
    assert warm.cache_stores == 0  # nothing executed, nothing stored
    assert all(point.cached for point in warm.results)
    for before, after in zip(cold.results, warm.results):
        assert before.point == after.point
        assert before.metrics == after.metrics


def test_fingerprint_change_forces_reexecution(tmp_path):
    run_sweep(SMALL, cache=ResultCache(root=tmp_path, fingerprint="f1"))
    changed = run_sweep(
        SMALL, cache=ResultCache(root=tmp_path, fingerprint="f2")
    )
    assert changed.cache_misses == 4 and changed.cache_hits == 0


def test_force_reexecutes_but_refreshes_cache(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    run_sweep(SMALL, cache=cache)
    forced = run_sweep(SMALL, cache=cache, force=True)
    assert forced.cache_misses == 4
    warm = run_sweep(SMALL, cache=cache)
    assert warm.cache_hits == 4


def test_parallel_matches_serial(tmp_path):
    serial = run_sweep(SMALL)
    parallel = run_sweep(SMALL, workers=2)
    assert parallel.mode == "parallel"
    assert parallel.workers == 2
    assert [p.point for p in parallel.results] == [
        p.point for p in serial.results
    ]
    for a, b in zip(serial.results, parallel.results):
        assert a.metrics == b.metrics


def test_incremental_sweep_only_runs_new_points(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    run_sweep(SMALL, cache=cache)
    grown = SweepSpec(
        name="small",
        runner="app",
        axes=(
            ("app", ("3L-MF", "3L-MMD", "RP-CLASS")),
            ("mode", ("single-core", "multi-core")),
        ),
        base=(("duration_s", 1.0),),
    )
    result = run_sweep(grown, cache=cache)
    assert result.cache_hits == 4
    assert result.cache_misses == 2


def test_no_cache_disables_reads_and_writes(tmp_path, monkeypatch):
    """``cache=None`` reads and writes nothing, not even the default
    root."""
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    result = run_sweep(SMALL)
    assert not any(tmp_path.iterdir())
    assert result.cache_misses == 4 and result.cache_stores == 0
    assert result.fingerprint == ""


def test_unknown_runner_and_bad_workers_raise():
    bad = SweepSpec(name="x", runner="nope")
    with pytest.raises(RunnerError):
        run_sweep(bad)
    with pytest.raises(ValueError):
        run_sweep(SMALL, workers=0)


def test_fleet_and_platform_and_ablation_points(tmp_path):
    fleet = SweepSpec(
        name="f",
        runner="fleet",
        axes=(("protocol", ("none", "ftsp")),),
        base=(
            ("scenario", "dense-ward"),
            ("nodes", 2),
            ("duration_s", 2.0),
            ("seed", 7),
        ),
    )
    result = run_sweep(fleet)
    assert result.n_points == 2
    for point in result.results:
        assert point.metrics["n_nodes"] == 2
        assert point.metrics["simulated_s"] == 4.0

    platform = SweepSpec(
        name="p",
        runner="platform",
        axes=(("cores", (1, 2)),),
        base=(("cycles", 2000),),
    )
    result = run_sweep(platform)
    assert [p.metrics["cycles"] for p in result.results] == [2000, 2000]

    adc = SweepSpec(
        name="pa",
        runner="platform-adc",
        axes=(("period_cycles", (1000,)),),
    )
    (point,) = run_sweep(adc).results
    # 1 s of ECG: 250 samples a lead, each its own 1,000-cycle gap; the
    # cores are clocked for a small share of the run.
    assert 250_000 < point.metrics["cycles"] < 251_000
    assert point.metrics["active_cycles"] < 0.05 * 3 * 250_000
    with pytest.raises(RunnerError):
        run_sweep(SweepSpec(name="pa0", runner="platform-adc",
                            base=(("period_cycles", 0),)))

    ablation = SweepSpec(
        name="a",
        runner="ablation",
        axes=(("ablation", ("broadcast",)),),
        base=(("duration_s", 1.0),),
    )
    result = run_sweep(ablation)
    assert result.results[0].metrics["penalty"] > 0


def test_platform_adc_names_what_did_not_halt():
    """A 1-cycle ADC period outruns the kernel: the error names the
    cycle and the replicas still running."""
    with pytest.raises(RunnerError, match=r"^running-max kernel did not "
                       r"halt by cycle \d+: cores 0, 1, 2 not halted$"):
        run_platform_adc_point({"period_cycles": 1})
