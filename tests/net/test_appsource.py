"""Tests for the pluggable per-node application sources."""

import pickle
import random

import pytest

from repro.apps.mapping import MappingError
from repro.gen.generator import parse_app_token, suite_tokens
from repro.net.appsource import (
    APPS,
    BenchmarkSource,
    GeneratedSuiteSource,
    MixedSource,
)
from repro.net.scenarios import (
    SCENARIOS,
    generated_scenario,
    parse_scenario,
    scenario_token,
)


def _rng(seed="x"):
    return random.Random(seed)


# ---------------------------------------------------------------------------
# BenchmarkSource
# ---------------------------------------------------------------------------

def test_benchmark_source_draw_is_byte_compatible_with_app_mix():
    """Binding consumes exactly the historical weighted draw."""
    mix = (("3L-MF", 2.0), ("3L-MMD", 1.0))
    source = BenchmarkSource(mix=mix)
    rng_old, rng_new = _rng(), _rng()
    names = [name for name, _ in mix]
    weights = [weight for _, weight in mix]
    expected = rng_old.choices(names, weights=weights)[0]
    binding = source.bind(rng_new)
    assert binding.name == expected
    # the streams stay aligned after the draw, so every later draw
    # (bpm, drift, ...) is unchanged too
    assert rng_old.random() == rng_new.random()
    assert binding.plan is None and binding.token == ""
    assert binding.floor_mhz == 0.0


def test_benchmark_source_validates_mix():
    with pytest.raises(ValueError, match="unknown benchmark"):
        BenchmarkSource(mix=(("NOPE", 1.0),))
    with pytest.raises(ValueError, match="weight"):
        BenchmarkSource(mix=(("3L-MF", 0.0),))
    with pytest.raises(ValueError, match="non-empty"):
        BenchmarkSource(mix=())


# ---------------------------------------------------------------------------
# GeneratedSuiteSource
# ---------------------------------------------------------------------------

def test_generated_source_binds_suite_apps_with_plans():
    source = GeneratedSuiteSource(seed=11, count=6, policy="balanced")
    binding = source.bind(_rng())
    assert binding.token in source.tokens()
    family, seed, _, _ = parse_app_token(binding.token)
    assert binding.family == family and seed == 11
    assert binding.policy == "balanced"
    assert binding.plan is not None and binding.plan.multicore
    assert binding.floor_mhz > 0.0
    assert binding.app.name.startswith("G")


def test_generated_source_binding_is_deterministic():
    source = GeneratedSuiteSource(seed=3, count=5, policy="paper")
    a = source.bind(_rng("node-4"))
    b = source.bind(_rng("node-4"))
    assert a.token == b.token
    assert a.plan.section_banks == b.plan.section_banks
    other = source.bind(_rng("node-5"))
    # 5 tokens: different stream names usually land elsewhere, but at
    # minimum the draw is a pure function of the stream
    assert other.token in source.tokens()


def test_generated_source_builds_its_tokens_once(monkeypatch):
    import repro.net.appsource

    calls = []

    def counting(*args):
        calls.append(args)
        return suite_tokens(*args)

    fresh = [GeneratedSuiteSource(seed=7, count=12).bind(_rng(f"n{i}"))
             for i in range(16)]
    monkeypatch.setattr(repro.net.appsource, "suite_tokens", counting)
    source = GeneratedSuiteSource(seed=7, count=12)
    assert [source.bind(_rng(f"n{i}")) for i in range(16)] == fresh
    assert len(calls) == 1
    assert source.tokens() == suite_tokens(7, 12)
    assert source.universe() and len(calls) == 1
    assert pickle.loads(pickle.dumps(source)) == source


def test_generated_source_single_core_policy_yields_sc_plan():
    source = GeneratedSuiteSource(seed=3, count=4, policy="single-core")
    binding = source.bind(_rng())
    assert binding.plan is not None and not binding.plan.multicore
    assert binding.floor_mhz == 0.0  # SC clocks are sized downstream


def test_generated_source_skips_unplaceable_apps():
    """Narrow platforms force repairs; zero-core rejects everything."""
    source = GeneratedSuiteSource(seed=11, count=6, policy="paper",
                                  num_cores=2)
    binding = source.bind(_rng())
    # every generated app has >= 1 phase; with 2 cores wide apps must
    # be repaired (replicas trimmed) or skipped, never crash
    assert binding.plan.active_cores <= 2


def test_generated_source_raises_when_nothing_places():
    source = GeneratedSuiteSource(seed=11, count=2, policy="paper",
                                  num_cores=1)
    with pytest.raises(MappingError, match="places no app"):
        source.bind(_rng())


def test_generated_source_validates_parameters():
    with pytest.raises(ValueError):
        GeneratedSuiteSource(seed=1, count=0)
    with pytest.raises(ValueError):
        GeneratedSuiteSource(seed=1, count=3, policy="nonsense")
    with pytest.raises(ValueError):
        GeneratedSuiteSource(seed=1, count=3, families=("martian",))


# ---------------------------------------------------------------------------
# MixedSource
# ---------------------------------------------------------------------------

def test_mixed_source_delegates_to_parts():
    source = MixedSource(parts=(
        (BenchmarkSource(mix=(("3L-MF", 1.0),)), 1.0),
        (GeneratedSuiteSource(seed=5, count=4, policy="balanced"), 1.0),
    ))
    kinds = set()
    for node in range(30):
        binding = source.bind(_rng(f"n{node}"))
        kinds.add("gen" if binding.token else "bench")
    assert kinds == {"gen", "bench"}


def test_mixed_source_validates_parts():
    with pytest.raises(ValueError):
        MixedSource(parts=())
    with pytest.raises(ValueError):
        MixedSource(parts=((BenchmarkSource(mix=(("3L-MF", 1.0),)),
                            0.0),))


def test_every_preset_source_describes_itself():
    for scenario in SCENARIOS.values():
        assert scenario.apps.describe()
        assert scenario.apps.kind in ("benchmark", "generated-suite",
                                      "mixed")


def test_benchmark_registry_unchanged():
    assert set(APPS) == {"3L-MF", "3L-MMD", "RP-CLASS"}


# ---------------------------------------------------------------------------
# Scenario tokens
# ---------------------------------------------------------------------------

def test_scenario_tokens_round_trip():
    scenario = generated_scenario(base="dense-ward", seed=7, count=12,
                                  policy="balanced")
    token = scenario_token(scenario)
    assert token == "gen:dense-ward:7:12:balanced"
    assert parse_scenario(token) == scenario

    with_families = generated_scenario(
        base="drifting-wearables", seed=3, count=6, policy="paper",
        families=("pipeline", "fork-join"))
    token = scenario_token(with_families)
    assert token == "gen:drifting-wearables:3:6:paper:pipeline+fork-join"
    assert parse_scenario(token) == with_families

    narrow = generated_scenario(base="dense-ward", seed=5, count=4,
                                policy="balanced", num_cores=4)
    token = scenario_token(narrow)
    assert token == "gen:dense-ward:5:4:balanced::4"
    assert parse_scenario(token) == narrow

    narrow_fams = generated_scenario(
        base="dense-ward", seed=5, count=4, policy="balanced",
        families=("pipeline",), num_cores=12)
    token = scenario_token(narrow_fams)
    assert token == "gen:dense-ward:5:4:balanced:pipeline:12"
    assert parse_scenario(token) == narrow_fams

    for name in SCENARIOS:
        assert scenario_token(SCENARIOS[name]) == name
        assert parse_scenario(name) == SCENARIOS[name]


def test_parse_scenario_rejects_malformed_tokens():
    with pytest.raises(ValueError, match="unknown scenario"):
        parse_scenario("mars-rover")
    with pytest.raises(ValueError, match="malformed scenario token"):
        parse_scenario("gen:dense-ward:7")
    with pytest.raises(ValueError, match="seed, count and cores"):
        parse_scenario("gen:dense-ward:x:y:balanced")
    with pytest.raises(ValueError, match="seed, count and cores"):
        parse_scenario("gen:dense-ward:5:4:balanced::many")
    with pytest.raises(ValueError, match="unknown scenario"):
        parse_scenario("gen:mars-rover:7:12:balanced")
    with pytest.raises(ValueError, match="unknown mapping policy"):
        parse_scenario("gen:dense-ward:7:12:nonsense")
