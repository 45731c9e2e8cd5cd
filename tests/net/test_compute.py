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

from repro import obs
from repro.net.compute import (
    COMPUTE_CACHE_ENV,
    ComputeSummary,
    clear_process_caches,
    record_compute_counters,
    report_from_payload,
    resolve,
    schedule_signature,
    simulate_request,
)
from repro.net.fleet import run_fleet
from repro.net.hierarchy import profile_key, profile_table
from repro.net.node import build_node
from repro.net.scenarios import get_scenario, parse_scenario
from repro.net.streaming import run_streaming
from repro.store import code_fingerprint, entry_path
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


def _requests(count):
    """Compute requests of the first ``count`` generated-swarm nodes."""
    scenario = get_scenario("generated-swarm")
    return [build_node(scenario, node_id, 1, 2.0).compute_request()
            for node_id in range(count)]


def _entries(root):
    """Every entry file under a cache root, relative to it."""
    return sorted(path.relative_to(root) for path in root.rglob("*.json"))


def _counting_rows(monkeypatch):
    """Patch ``simulate_batch``; the list collects each call's rows."""
    import repro.net.compute

    rows = []

    def counting(app, mode, signatures, *args, **kwargs):
        rows.append(len(signatures))
        return simulate_batch(app, mode, signatures, *args, **kwargs)

    monkeypatch.setattr(repro.net.compute, "simulate_batch", counting)
    return rows


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
# Resolver == legacy inline path
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
        table, summary = profile_table(base, 2.0)
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
    """Only the requests and their distinct keys are counted."""
    with obs.collecting() as registry:
        record_compute_counters(ComputeSummary(requests=24,
                                               distinct_keys=9))
    counters = registry.deterministic()["counters"]
    assert counters == {"net.compute.requests": 24,
                        "net.compute.keys": 9}


def test_resolver_summary_identical_cold_and_warm():
    scenario = get_scenario("dense-ward")
    requests = [
        build_node(scenario, node_id, 3, 2.0).compute_request()
        for node_id in range(6)
    ]
    clear_process_caches()
    cold = resolve(requests)
    warm = resolve(requests)  # memo now serves every key
    assert list(cold) == sorted({request.key for request in requests})
    assert warm == cold


def test_partly_warm_groups_resolve_like_a_cold_run(tmp_path, monkeypatch):
    """Each app group comes a third from disk, a third from the memo
    and a third from one engine call: the table equals a cold one."""
    monkeypatch.delenv(COMPUTE_CACHE_ENV, raising=False)
    scenario = get_scenario("generated-swarm")
    requests = [
        build_node(scenario, node_id, 1, 10.0).compute_request()
        for node_id in range(64)
    ]
    clear_process_caches()
    cold = resolve(requests)
    groups: dict[tuple, list[str]] = {}
    for request in {r.key: r for r in requests}.values():
        group = (request.binding.app_key, request.binding.mode)
        groups.setdefault(group, []).append(request.key)
    assert max(map(len, groups.values())) >= 3
    # A third of each group on disk, a third in the memo.
    disk = {key for keys in groups.values() for key in sorted(keys)[::3]}
    memo = {key for keys in groups.values() for key in sorted(keys)[1::3]}
    clear_process_caches()
    resolve([r for r in requests if r.key in disk], str(tmp_path))
    clear_process_caches()
    resolve([r for r in requests if r.key in memo])
    missing = len(cold) - len(disk) - len(memo)

    rows = _counting_rows(monkeypatch)
    warm = resolve(requests, str(tmp_path))
    assert sum(rows) == missing
    assert len(rows) == sum(len(keys) >= 3 for keys in groups.values())
    assert list(warm) == list(cold)
    assert warm == cold
    for key, payload in cold.items():
        assert report_from_payload(warm[key]) == \
            report_from_payload(payload)


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
# Disk layer mechanics
# ---------------------------------------------------------------------------

def test_cache_roundtrip_and_corrupt_entries(tmp_path, monkeypatch):
    requests = _requests(4)
    clear_process_caches()
    cold = resolve(requests, str(tmp_path))
    paths = [entry_path(tmp_path, code_fingerprint(), key) for key in cold]
    assert _entries(tmp_path) == [p.relative_to(tmp_path) for p in paths]
    for path, payload in zip(paths, cold.values()):
        assert json.loads(path.read_text(encoding="utf-8")) == payload
    rows = _counting_rows(monkeypatch)
    clear_process_caches()  # force the disk reads
    assert resolve(requests, str(tmp_path)) == cold
    assert rows == []
    # Corrupt bytes read as a miss: simulated again and rewritten.
    good = paths[0].read_bytes()
    paths[0].write_text("{not json", encoding="utf-8")
    clear_process_caches()
    assert resolve(requests, str(tmp_path)) == cold
    assert rows == [1]
    assert paths[0].read_bytes() == good


def _category(name, value):
    """A doctor that sets one category's value."""
    def doctor(payload):
        for pair in payload["categories"]:
            if pair[0] == name:
                pair[1] = value
    return doctor


#: Doctored disk entries, each of which must read as a miss.
_DOCTORED = {
    "missing category": lambda p: p["categories"].pop(),
    "repeated category": lambda p: p["categories"].append(
        list(p["categories"][0])),
    "unknown category": lambda p: p["categories"].append(["bogus", 5.0]),
    "NaN category": _category("leakage", math.nan),
    "infinite category": _category("cores_logic", math.inf),
    "string category": _category("leakage", "0"),
    "bool category": _category("leakage", True),
    "categories as a mapping": lambda p: p.update(
        categories=dict(p["categories"])),
    "foreign schema": lambda p: p.update(schema="repro-compute-entry/1"),
    "no frequency": lambda p: p.pop("frequency_mhz"),
    "no voltage": lambda p: p.pop("voltage"),
    "no duration": lambda p: p.pop("duration_s"),
    "null voltage": lambda p: p.update(voltage=None),
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
    """The disk root is ``cache_dir``, else the environment's, else
    there is none."""
    monkeypatch.chdir(tmp_path)
    requests = _requests(4)
    keys = {request.key for request in requests}
    assert len(keys) > 1
    monkeypatch.setenv(COMPUTE_CACHE_ENV, str(tmp_path / "env"))
    clear_process_caches()
    resolve(requests)
    clear_process_caches()
    resolve(requests, str(tmp_path / "explicit"))
    assert _entries(tmp_path / "env") == _entries(tmp_path / "explicit")
    assert len(_entries(tmp_path / "env")) == len(keys)
    monkeypatch.delenv(COMPUTE_CACHE_ENV)
    clear_process_caches()
    resolve(requests)
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        ["env", "explicit"]
    assert len(_entries(tmp_path)) == 2 * len(keys)


def test_report_rebuilds_in_canonical_category_order():
    """A payload keeps ``compute_power``'s category order through a
    ``sort_keys`` JSON round trip, so ``total_uw`` keeps its bits."""
    (request,) = _requests(1)
    live = simulate_request(request)
    assert list(live.categories) != sorted(live.categories)
    clear_process_caches()
    (payload,) = resolve([request]).values()
    stored = json.loads(json.dumps(payload, sort_keys=True))
    for report in (report_from_payload(payload),
                   report_from_payload(stored)):
        assert list(report.categories) == list(live.categories)
        assert report == live
        assert report.total_uw == live.total_uw


def test_compute_settings_normalisation():
    """``compute`` is None or ``"exact"`` (streaming: only
    ``"exact"``); anything else is rejected up front."""
    token = "tiers:rbs@1x3:dense-ward"
    for unknown in ("analytic", "fuzzy"):
        with pytest.raises(ValueError, match="unknown compute mode"):
            run_fleet("dense-ward", n_nodes=2, duration_s=1.0,
                      compute=unknown)
        with pytest.raises(ValueError, match="unknown compute mode"):
            run_streaming(token, duration_s=1.0, compute=unknown)
    with pytest.raises(ValueError, match="unknown compute mode"):
        run_streaming(token, duration_s=1.0, compute=None)


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
