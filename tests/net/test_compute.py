"""Compute fast-path tests: keys, cache, byte-determinism.

The resolver's contract has two load-bearing halves, each pinned
here: it is *byte-identical* to inline per-node simulation (plus
golden artifacts), and every artifact is deterministic across hash
seeds, worker counts and cache temperature.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.net.compute import (
    COMPUTE_CACHE_ENV,
    COMPUTE_ENTRY_SCHEMA,
    ComputeCache,
    ComputeResolver,
    ComputeSettings,
    ComputeSummary,
    clear_process_caches,
    compute_settings,
    report_from_payload,
    schedule_signature,
)
from repro.net.fleet import run_fleet
from repro.net.hierarchy import profile_key, profile_table
from repro.net.node import build_node
from repro.net.scenarios import get_scenario, parse_scenario
from repro.power.energy import CATEGORIES, PowerReport
from repro.power.vfs import OperatingPoint
from repro.sysc.engine import (
    BeatEvent,
    Mode,
    simulate,
    simulate_batch,
    uniform_schedule,
)

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "golden"

#: Heterogeneous scenario token shared by several tests.
GEN = "gen:drifting-wearables:1:8:balanced"


def _subprocess_env(**overrides):
    """Env for CLI subprocesses: src importable, no disk cache."""
    env = dict(os.environ)
    env.pop(COMPUTE_CACHE_ENV, None)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src if not existing else src + os.pathsep + existing
    )
    env.update(overrides)
    return env


def _eval_net(args, tmp_path, name, **env_overrides):
    """Run ``python -m repro.eval net`` writing a JSON artifact."""
    out = tmp_path / name
    subprocess.run(
        [sys.executable, "-m", "repro.eval", "net", *args,
         "--json", str(out)],
        check=True, cwd=tmp_path, env=_subprocess_env(**env_overrides),
        stdout=subprocess.DEVNULL)
    return out


# ---------------------------------------------------------------------------
# Schedule signature
# ---------------------------------------------------------------------------

def test_schedule_signature_reads_what_simulate_reads():
    schedule = [
        BeatEvent(sample=5, abnormal=True),
        BeatEvent(sample=12, abnormal=False),   # normal: invisible
        BeatEvent(sample=90, abnormal=True),    # beyond ticks: counted
        BeatEvent(sample=40, abnormal=True),
    ]
    assert schedule_signature(schedule, 80) == [80, 3, [5, 40]]
    # Normal beats never influence the signature at all.
    padded = schedule + [BeatEvent(sample=7, abnormal=False)]
    assert schedule_signature(padded, 80) == \
        schedule_signature(schedule, 80)
    # Zero-ratio fleets collapse onto one signature per shape.
    assert schedule_signature(
        uniform_schedule(2.0, 250.0, bpm=60.0), 500) == [500, 0, []]


def test_compute_request_key_is_content_addressed():
    node_a = build_node(get_scenario("dense-ward"), 1, 3, 4.0)
    node_b = build_node(get_scenario("dense-ward"), 1, 3, 4.0)
    assert node_a.compute_request().key == node_b.compute_request().key
    longer = build_node(get_scenario("dense-ward"), 1, 3, 8.0)
    assert longer.compute_request().key != node_a.compute_request().key


# ---------------------------------------------------------------------------
# Exact tier == legacy inline path
# ---------------------------------------------------------------------------

def _strip_provenance(nodes):
    return tuple(replace(node, compute_key="", compute_tier="")
                 for node in nodes)


def test_exact_resolver_matches_legacy_inline():
    clear_process_caches()
    legacy = run_fleet("dense-ward", n_nodes=6, duration_s=2.0)
    exact = run_fleet("dense-ward", n_nodes=6, duration_s=2.0,
                      compute="exact")
    assert legacy.compute is None
    assert exact.compute is not None
    assert exact.summary == legacy.summary
    assert _strip_provenance(exact.nodes) == legacy.nodes
    assert all(node.compute_tier == "exact" and node.compute_key
               for node in exact.nodes)
    assert all(node.compute_key == "" and node.compute_tier == ""
               for node in legacy.nodes)


def test_profile_table_matches_simulate():
    """Every exact streaming profile is its binding's simulate() total.

    The generated single-core base runs the single-core branch of
    ``AppBinding.mode``; dense-ward runs the paper-default branch.
    """
    modes = set()
    for token in ("dense-ward", "gen:dense-ward:3:4:single-core"):
        base = parse_scenario(token)
        clear_process_caches()
        table, summary = profile_table(
            base, 2.0, ComputeResolver(ComputeSettings()))
        bindings = base.apps.universe(base.abnormal_ratio)
        assert summary.requests == len(bindings)
        bpm = (base.bpm_range[0] + base.bpm_range[1]) / 2.0
        for binding in bindings:
            schedule = uniform_schedule(
                2.0, binding.app.fs, bpm=bpm,
                abnormal_ratio=base.abnormal_ratio)
            result = simulate(binding.app, binding.mode, schedule,
                              duration_s=2.0,
                              num_cores=binding.num_cores,
                              mapping=binding.plan)
            assert table[profile_key(binding, base, 2.0)] == \
                result.power.total_uw
            modes.add(binding.mode)
    assert modes == {Mode.MULTI_CORE, Mode.SINGLE_CORE}


def test_exact_worker_count_determinism():
    clear_process_caches()
    serial = run_fleet(GEN, n_nodes=10, duration_s=2.0,
                       compute="exact", workers=1)
    parallel = run_fleet(GEN, n_nodes=10, duration_s=2.0,
                         compute="exact", workers=3)
    assert parallel.mode == "parallel"
    assert parallel.summary == serial.summary
    assert parallel.nodes == serial.nodes
    assert parallel.compute == serial.compute


# ---------------------------------------------------------------------------
# Logical counters + cache temperature independence
# ---------------------------------------------------------------------------

def test_summary_counters_are_logical():
    summary = ComputeSummary(requests=24, distinct_keys=9)
    assert summary.cache_hits == 15
    assert summary.cache_misses == 9
    assert summary.cache_stores == 9


def test_resolver_summary_identical_cold_and_warm():
    scenario = get_scenario("dense-ward")
    requests = [
        build_node(scenario, node_id, 3, 2.0).compute_request()
        for node_id in range(6)
    ]
    clear_process_caches()
    resolver = ComputeResolver(ComputeSettings())
    cold = resolver.resolve(requests)
    warm = resolver.resolve(requests)  # memo now serves every key
    assert warm.summary == cold.summary
    for key, entry in cold.table.items():
        assert warm.table[key].payload == entry.payload


def test_partly_warm_groups_resolve_like_a_cold_run(tmp_path, monkeypatch):
    """Each app group comes a third from disk, a third from the memo
    and a third from one engine call: the table equals a cold one."""
    import repro.net.compute

    monkeypatch.delenv(COMPUTE_CACHE_ENV, raising=False)
    scenario = get_scenario("generated-swarm")
    requests = [
        build_node(scenario, node_id, 1, 10.0).compute_request()
        for node_id in range(64)
    ]
    clear_process_caches()
    cold = ComputeResolver(ComputeSettings()).resolve(requests)
    groups: dict[tuple, list[str]] = {}
    for request in {r.key: r for r in requests}.values():
        group = (request.binding.app_key, request.mode)
        groups.setdefault(group, []).append(request.key)
    assert max(map(len, groups.values())) >= 3
    clear_process_caches()
    disk, memo = ComputeCache(tmp_path), ComputeCache(None)
    missing = 0
    for keys in groups.values():
        for index, key in enumerate(sorted(keys)):
            if index % 3 == 0:
                disk.put(key, cold.table[key].payload)
            elif index % 3 == 1:
                memo.put(key, cold.table[key].payload)
            else:
                missing += 1
    for keys in groups.values():  # disk-only: drop the memo copies
        for key in sorted(keys)[::3]:
            repro.net.compute._MEMO.pop(key)

    rows = []

    def counting(app, mode, signatures, *args, **kwargs):
        rows.append(len(signatures))
        return simulate_batch(app, mode, signatures, *args, **kwargs)

    monkeypatch.setattr(repro.net.compute, "simulate_batch", counting)
    warm = ComputeResolver(ComputeSettings(str(tmp_path))).resolve(requests)
    assert sum(rows) == missing
    assert len(rows) == sum(len(keys) >= 3 for keys in groups.values())
    assert warm.summary == cold.summary
    assert list(warm.table) == list(cold.table)
    assert warm.table == cold.table
    for key, entry in cold.table.items():
        assert warm.table[key].report() == entry.report()


def test_disk_cache_cold_vs_warm_nodes_identical(tmp_path, monkeypatch):
    monkeypatch.setenv(COMPUTE_CACHE_ENV, str(tmp_path))
    clear_process_caches()
    cold = run_fleet(GEN, n_nodes=8, duration_s=2.0, compute="exact")
    assert list(tmp_path.rglob("*.json"))  # disk layer engaged
    clear_process_caches()  # second run must be served from disk
    warm = run_fleet(GEN, n_nodes=8, duration_s=2.0, compute="exact")
    assert warm.summary == cold.summary
    assert warm.nodes == cold.nodes
    assert warm.compute == cold.compute


# ---------------------------------------------------------------------------
# ComputeCache mechanics
# ---------------------------------------------------------------------------

def _entry_payload():
    report = PowerReport(
        operating_point=OperatingPoint(frequency_mhz=12.0, voltage=1.0),
        duration_s=2.0,
        categories={"cores_logic": 10.0, "leakage": 1.5},
    )
    return {
        "schema": COMPUTE_ENTRY_SCHEMA,
        "tier": "exact",
        "frequency_mhz": report.operating_point.frequency_mhz,
        "voltage": report.operating_point.voltage,
        "duration_s": report.duration_s,
        "categories": dict(report.categories),
    }


def _complete_payload():
    """An entry with every category a live run reports."""
    payload = _entry_payload()
    payload["categories"] = {
        **dict.fromkeys(CATEGORIES, 0.25), **payload["categories"]
    }
    return payload


def test_cache_roundtrip_and_corrupt_entries(tmp_path):
    cache = ComputeCache(tmp_path)
    key = "ab" + "0" * 38
    cache.put(key, _complete_payload())
    clear_process_caches()  # force the disk read
    assert ComputeCache(tmp_path).get(key) == _complete_payload()
    # Corrupt bytes and foreign schemas both read as misses.
    path = cache._path(key)
    path.write_text("{not json", encoding="utf-8")
    clear_process_caches()
    assert ComputeCache(tmp_path).get(key) is None
    path.write_text(json.dumps({"schema": "other/1"}), encoding="utf-8")
    clear_process_caches()
    assert ComputeCache(tmp_path).get(key) is None


#: Doctored disk entries, each of which must read as a miss.
_DOCTORED = {
    "missing category": lambda p: p["categories"].pop("leakage"),
    "NaN category": lambda p: p["categories"].update(leakage=math.nan),
    "infinite category": lambda p: p["categories"].update(
        cores_logic=math.inf),
    "string category": lambda p: p["categories"].update(leakage="0"),
    "bool category": lambda p: p["categories"].update(leakage=True),
    "unknown category": lambda p: p["categories"].update(bogus=5.0),
    "no frequency": lambda p: p.pop("frequency_mhz"),
    "no voltage": lambda p: p.pop("voltage"),
    "no duration": lambda p: p.pop("duration_s"),
    "null voltage": lambda p: p.update(voltage=None),
    "no tier": lambda p: p.pop("tier"),
}


@pytest.mark.parametrize("doctor", sorted(_DOCTORED))
def test_doctored_cache_entry_is_resimulated(doctor, tmp_path):
    """A corrupt entry ends in a correct run: it reads as a miss, is
    simulated again and overwritten with the good payload."""
    def fleet():
        clear_process_caches()
        return run_fleet("generated-swarm", n_nodes=6, duration_s=2.0,
                         compute="exact", compute_cache=str(tmp_path))

    cold = fleet()
    entry = sorted(tmp_path.rglob("*.json"))[0]
    good = json.loads(entry.read_text(encoding="utf-8"))
    doctored = json.loads(entry.read_text(encoding="utf-8"))
    _DOCTORED[doctor](doctored)
    entry.write_text(json.dumps(doctored), encoding="utf-8")
    warm = fleet()
    assert warm.nodes == cold.nodes
    assert warm.summary == cold.summary
    assert json.loads(entry.read_text(encoding="utf-8")) == good


def test_cache_root_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(COMPUTE_CACHE_ENV, str(tmp_path))
    assert ComputeCache(None).root == tmp_path
    monkeypatch.delenv(COMPUTE_CACHE_ENV)
    assert ComputeCache(None).root is None
    assert ComputeCache(tmp_path / "explicit").root == \
        tmp_path / "explicit"


def test_report_rebuilds_in_canonical_category_order():
    payload = _entry_payload()
    # A JSON round trip with sort_keys scrambles insertion order.
    scrambled = json.loads(json.dumps(payload, sort_keys=True))
    scrambled["categories"]["radio"] = 3.25  # unknown extra category
    report = report_from_payload(scrambled)
    assert list(report.categories) == ["cores_logic", "leakage",
                                       "radio"]
    assert report.total_uw == 10.0 + 1.5 + 3.25


def test_compute_settings_normalisation():
    assert compute_settings(None) is None
    settings = compute_settings("exact", "/tmp/x")
    assert settings == ComputeSettings(cache_dir="/tmp/x")
    assert compute_settings(settings) is settings
    for unknown in ("analytic", "fuzzy"):
        with pytest.raises(ValueError, match="unknown compute mode"):
            compute_settings(unknown)


# ---------------------------------------------------------------------------
# Universe enumeration (the closed set streaming pre-resolves)
# ---------------------------------------------------------------------------

def test_benchmark_universe_covers_the_mix():
    scenario = get_scenario("dense-ward")
    universe = scenario.apps.universe(scenario.abnormal_ratio)
    names = [binding.app.name for binding in universe]
    assert names == list(dict.fromkeys(
        name for name, _ in scenario.apps.mix))
    assert all(binding.app_key for binding in universe)


def test_generated_universe_covers_every_fleet_binding():
    scenario = parse_scenario(GEN)
    universe = scenario.apps.universe(scenario.abnormal_ratio)
    tokens = {binding.token for binding in universe}
    result = run_fleet(GEN, n_nodes=12, duration_s=2.0)
    assert {node.token for node in result.nodes
            if node.node_id != 0} <= tokens


# ---------------------------------------------------------------------------
# Byte-determinism of the CLI artifacts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args, golden", [
    (["--scenario", "dense-ward", "--nodes", "8", "--duration", "2"],
     "net_v1_dense-ward_n8_d2.json"),
    (["--suite-seed", "7", "--suite-count", "12", "--policy",
      "balanced", "--nodes", "10", "--duration", "4"],
     "net_v2_suite7_n10_d4.json"),
    (["--tiers", "ward-campus", "--duration", "4"],
     "net_v3_ward-campus_d4.json"),
    (["--scenario", "intermittent-harvesting", "--nodes", "8",
      "--duration", "20"],
     "net_v1_intermittent-harvesting_n8_d20.json"),
])
def test_exact_mode_artifact_matches_pre_resolver_golden(
        args, golden, tmp_path):
    """``net`` artifacts (exact compute resolver) are pinned bytes."""
    out = _eval_net(args, tmp_path, "artifact.json")
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_exact_artifact_stable_across_hash_seeds(tmp_path):
    args = ["--scenario", "dense-ward", "--nodes", "6",
            "--duration", "2"]
    a = _eval_net(args, tmp_path, "a.json", PYTHONHASHSEED="1")
    b = _eval_net(args, tmp_path, "b.json", PYTHONHASHSEED="42")
    assert a.read_bytes() == b.read_bytes()
