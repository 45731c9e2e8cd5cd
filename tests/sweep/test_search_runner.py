"""The search run family through the cached sweep engine."""

import pytest

from repro.sweep import (
    ResultCache,
    RunnerError,
    SPECS,
    SweepSpec,
    expand,
    generated_app_axis,
    get_runner,
    run_sweep,
)

#: A tiny search campaign: 2 apps x 2 algorithms, small budgets.
TINY = SweepSpec(
    name="search-tiny",
    runner="search",
    axes=(
        generated_app_axis(seed=23, count=2),
        ("algorithm", ("greedy", "anneal")),
    ),
    base=(
        ("iterations", 6),
        ("duration_s", 1.0),
        ("num_cores", 8),
        ("seed", 23),
    ),
)


def test_search_sweep_executes_and_caches(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    cold = run_sweep(TINY, cache=cache)
    assert cold.n_points == 4
    assert cold.cache_misses == 4
    for point in cold.results:
        assert point.metrics["status"] in ("ok", "repaired", "rejected")
        if point.metrics["status"] != "rejected":
            assert point.metrics["gap"] >= 0.0
            assert point.metrics["best_cost"] <= \
                point.metrics["start_cost"] + 1e-9
            assert point.metrics["simulated_s"] == \
                point.metrics["evaluations"] * 1.0
    warm = run_sweep(TINY, cache=cache)
    assert warm.cache_hits == 4 and warm.cache_misses == 0
    for before, after in zip(cold.results, warm.results):
        assert before.metrics == after.metrics


def test_search_sweep_parallel_matches_serial():
    serial = run_sweep(TINY)
    parallel = run_sweep(TINY, workers=2)
    for a, b in zip(serial.results, parallel.results):
        assert a.metrics == b.metrics


def test_search_runner_derives_stable_seed_when_omitted():
    runner = get_runner("search")
    point = {"gen_app": "pipeline:23:0", "algorithm": "greedy",
             "iterations": 4, "duration_s": 1.0}
    first = runner(dict(point))
    second = runner(dict(point))
    assert first == second
    assert first["seed"] == second["seed"]


def test_search_runner_rejects_bad_parameters():
    runner = get_runner("search")
    with pytest.raises(RunnerError):
        runner({"gen_app": "nope:1:2"})
    with pytest.raises(RunnerError):
        runner({"gen_app": "pipeline:1:0", "algorithm": "nope"})
    with pytest.raises(RunnerError):
        runner({"gen_app": "pipeline:1:0", "cost": "nope"})


def test_builtin_search_spec_is_registered():
    spec = SPECS["search"]
    assert spec.runner == "search"
    assert spec.axis_names == ("gen_app", "algorithm")
    points = expand(spec)
    assert len(points) == 8  # 4 generated apps x 2 algorithms
