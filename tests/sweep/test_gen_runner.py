"""Generated-app axes through the cached sweep engine."""

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

#: A tiny generated-app campaign: 2 apps x 2 policies.
TINY = SweepSpec(
    name="gen-tiny",
    runner="gen",
    axes=(
        generated_app_axis(seed=17, count=2),
        ("policy", ("paper", "balanced")),
    ),
    base=(("duration_s", 1.0), ("num_cores", 8)),
)


def test_generated_app_axis_is_json_scalar_tokens():
    axis, values = generated_app_axis(seed=17, count=3)
    assert axis == "gen_app"
    assert values == ("pipeline:17:0", "fork-join:17:1", "fan-in:17:2")
    assert all(isinstance(value, str) for value in values)


def test_gen_sweep_executes_and_caches(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    cold = run_sweep(TINY, cache=cache)
    assert cold.n_points == 4
    assert cold.cache_misses == 4
    for point in cold.results:
        assert point.metrics["status"] in ("ok", "repaired", "rejected")
        if point.metrics["status"] != "rejected":
            assert point.metrics["power_uw"] > 0
            assert point.metrics["simulated_s"] == 1.0
    warm = run_sweep(TINY, cache=cache)
    assert warm.cache_hits == 4 and warm.cache_misses == 0
    for before, after in zip(cold.results, warm.results):
        assert before.metrics == after.metrics


def test_gen_sweep_parallel_matches_serial():
    serial = run_sweep(TINY)
    parallel = run_sweep(TINY, workers=2)
    for a, b in zip(serial.results, parallel.results):
        assert a.metrics == b.metrics


def test_gen_runner_rejects_bad_tokens_and_policies():
    runner = get_runner("gen")
    with pytest.raises(RunnerError):
        runner({"gen_app": "nope:1:2"})
    with pytest.raises(RunnerError):
        runner({"gen_app": "pipeline:1:0", "policy": "nope"})


def test_builtin_gen_spec_is_registered():
    spec = SPECS["gen"]
    assert spec.runner == "gen"
    assert spec.axis_names == ("gen_app", "policy")
    points = expand(spec)
    assert len(points) == 18  # 6 generated apps x 3 policies
