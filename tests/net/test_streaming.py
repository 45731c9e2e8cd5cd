"""Streaming executor tests: invariance, checkpoints, degeneracy.

Every run here goes through :func:`run_streaming`, which checks the
result's invariants (:func:`_check_invariants`) before returning it.
"""

import json
import math
import os
import sys
import time
from dataclasses import astuple
from pathlib import Path

import pytest

from repro.eval.netexp import hierarchy_payload
from repro.net import streaming
from repro.net.hierarchy import HierarchySpec, parse_hierarchy
from repro.net.node import error_grid
from repro.net.scenarios import get_scenario
from repro.net.stats import SYNC_FIELDS
from repro.net.streaming import StreamingConfig, StreamingRunner

from ..processes import children, run_fresh

#: Small two-tier fixture: 3 subtrees of 1 gateway + 4 leaves each.
TOKEN = "tiers:ftsp@5x3/rbs@1x4:dense-ward"

#: The error aggregates of a tier.
TIER_ERRORS = ("hop_sync", "steady_hop_sync", *SYNC_FIELDS)


def _check_invariants(result):
    """Nodes and samples are conserved across tiers and waves, and
    every error is finite with ``0 <= mean <= max``."""
    spec, summary = result.spec, result.summary
    times, steady = error_grid(result.duration_s)
    done = result.subtrees_done
    nodes = [n * done // spec.subtrees for n in spec.tier_counts]
    if result.completed:
        assert nodes == list(spec.tier_counts)
        assert summary.n_nodes == spec.n_nodes
    assert [tier.nodes for tier in result.tiers] == nodes
    assert summary.n_nodes == 1 + sum(nodes)
    errors = [getattr(summary, name) for name in SYNC_FIELDS]
    for tier in result.tiers:
        for name in TIER_ERRORS:
            error = getattr(tier, name)
            width = len(times) - steady if "steady" in name else len(times)
            assert error.count == tier.nodes * width, (tier.name, name)
            errors.append(error)
    for name in SYNC_FIELDS:
        assert getattr(summary, name).count == sum(
            getattr(tier, name).count for tier in result.tiers)
    assert summary.beacons_heard == sum(
        tier.beacons_heard for tier in result.tiers)
    for error in errors:
        assert all(math.isfinite(value) for value in astuple(error))
        assert 0.0 <= error.mean_abs_s <= error.max_abs_s * (1 + 1e-12)


def run_streaming(tiers, **kwargs):
    """:func:`repro.net.streaming.run_streaming`, invariants checked."""
    result = streaming.run_streaming(tiers, **kwargs)
    _check_invariants(result)
    return result


def _run(**kwargs):
    kwargs.setdefault("duration_s", 2.0)
    kwargs.setdefault("seed", 7)
    return run_streaming(TOKEN, **kwargs)


def test_wave_size_does_not_change_the_result():
    whole = _run()
    wave1 = _run(wave_size=1)
    wave2 = _run(wave_size=2)
    assert whole.wave_size == 3  # one wave covers every subtree
    assert wave1.waves == 3 and wave2.waves == 2
    assert wave1.summary == whole.summary == wave2.summary
    assert wave1.tiers == whole.tiers == wave2.tiers


def test_worker_count_does_not_change_the_result():
    serial = _run(workers=1)
    parallel = _run(workers=2)
    assert parallel.summary == serial.summary
    assert parallel.tiers == serial.tiers


def test_reported_workers_are_capped_by_wave_and_subtrees():
    """No wave runs more subtrees in parallel than it holds."""
    assert _run(workers=8).workers == 3  # 3 subtrees
    assert _run(workers=8, wave_size=2).workers == 2
    assert _run(workers=2, wave_size=1).workers == 1
    assert _run(workers=2).workers == 2


def test_summary_counts_match_the_spec_shape():
    result = _run()
    spec = parse_hierarchy(TOKEN)
    assert result.completed
    assert result.summary.n_nodes == spec.n_nodes == 16
    assert result.summary.protocol == "ftsp/rbs"
    assert [t.nodes for t in result.tiers] == [3, 12]
    assert result.summary.beacons_heard == sum(
        t.beacons_heard for t in result.tiers)
    # Effective leaf error compounds the gateway hop, so the merged
    # fleet error can never beat the best single tier's hop error.
    assert result.summary.sync.count == sum(
        t.sync.count for t in result.tiers)


def test_checkpoint_resume_is_byte_identical_to_cold(tmp_path):
    cold = _run()
    interrupted = _run(wave_size=1, checkpoint_dir=tmp_path, max_waves=2)
    assert not interrupted.completed
    assert interrupted.subtrees_done == 2
    assert (tmp_path / interrupted.checkpoint.split("/")[-1]).exists()
    resumed = _run(wave_size=1, checkpoint_dir=tmp_path)
    assert resumed.completed
    assert resumed.resumed_subtrees == 2
    assert resumed.summary == cold.summary
    assert resumed.tiers == cold.tiers
    cold_doc = json.dumps(hierarchy_payload(cold), sort_keys=True)
    resumed_doc = json.dumps(hierarchy_payload(resumed), sort_keys=True)
    assert resumed_doc == cold_doc


def test_resume_mid_wave_boundary_mismatch_is_fine(tmp_path):
    """A checkpoint taken at wave size 1 resumes under wave size 2."""
    cold = _run()
    _run(wave_size=1, checkpoint_dir=tmp_path, max_waves=1)
    resumed = _run(wave_size=2, checkpoint_dir=tmp_path)
    assert resumed.resumed_subtrees == 1
    assert resumed.summary == cold.summary
    assert resumed.tiers == cold.tiers


def test_corrupt_checkpoint_is_ignored(tmp_path):
    interrupted = _run(wave_size=1, checkpoint_dir=tmp_path, max_waves=1)
    path = tmp_path / interrupted.checkpoint.split("/")[-1]
    path.write_text("{not json", encoding="utf-8")
    resumed = _run(wave_size=1, checkpoint_dir=tmp_path)
    assert resumed.resumed_subtrees == 0  # started over, not trusted
    assert resumed.summary == _run().summary


#: Doctored checkpoints of a run killed after 2 of 6 waves, each
#: edited into a state no run folds: more subtrees done than its
#: nodes, a negative or off-by-one sample count, a NaN or negative sum.
DOCTORED = {
    "subtrees_done": lambda doc: doc.update(subtrees_done=3),
    "negative_count": lambda doc: doc["tiers"][-1]["sync"].update(count=-5),
    "steady_count": lambda doc: doc["tiers"][-1]["steady_sync"].update(
        count=doc["tiers"][-1]["steady_sync"]["count"] + 1),
    "nan_max": lambda doc: doc["tiers"][-1]["sync"].update(max_abs="nan"),
    "negative_power": lambda doc: doc["tiers"][0].update(
        power_sum_uw=-1.0),
}


@pytest.mark.parametrize("doctor", DOCTORED.values(), ids=DOCTORED)
def test_doctored_checkpoint_starts_over(tmp_path, doctor):
    token = "tiers:ftsp@5x6/rbs@1x2:dense-ward"
    run = dict(duration_s=2.0, seed=3, wave_size=1)
    killed = run_streaming(token, checkpoint_dir=tmp_path, max_waves=2,
                           **run)
    path = Path(killed.checkpoint)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doctor(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    resumed = run_streaming(token, checkpoint_dir=tmp_path, **run)
    cold = run_streaming(token, **run)
    assert resumed.resumed_subtrees == 0  # started over, not trusted
    assert resumed.summary == cold.summary
    assert resumed.tiers == cold.tiers


def test_checkpoint_identity_keys_on_seed_and_duration(tmp_path,
                                                      monkeypatch):
    _run(wave_size=1, checkpoint_dir=tmp_path, max_waves=2)
    other_seed = _run(seed=8, wave_size=1, checkpoint_dir=tmp_path)
    assert other_seed.resumed_subtrees == 0
    other_duration = _run(duration_s=1.0, wave_size=1,
                          checkpoint_dir=tmp_path)
    assert other_duration.resumed_subtrees == 0
    # A run killed under one version of the code never resumes under
    # another.
    code = tmp_path / "code"
    monkeypatch.setattr(streaming, "code_fingerprint", lambda: "old")
    _run(wave_size=1, checkpoint_dir=code, max_waves=2)
    monkeypatch.setattr(streaming, "code_fingerprint", lambda: "new")
    other_code = _run(wave_size=1, checkpoint_dir=code)
    assert other_code.resumed_subtrees == 0


def test_completed_checkpoint_short_circuits_the_rerun(tmp_path):
    done = _run(checkpoint_dir=tmp_path)
    again = _run(checkpoint_dir=tmp_path)
    assert again.resumed_subtrees == again.subtrees
    assert again.summary == done.summary


def test_rootless_hierarchy_is_degenerate_but_valid():
    spec = HierarchySpec(name="solo", base=get_scenario("dense-ward"))
    result = run_streaming(spec, duration_s=2.0)
    assert result.completed
    assert result.subtrees == result.waves == 0
    assert result.summary.n_nodes == 1
    assert result.summary.protocol == "none"
    assert result.summary.sync.count == 0
    assert result.tiers == ()
    assert result.summary.total_power_uw > 0  # the root still runs


def test_single_tier_hierarchy_runs():
    result = run_streaming("tiers:rbs@1x3:dense-ward", duration_s=2.0)
    assert result.summary.n_nodes == 4
    assert len(result.tiers) == 1
    assert result.tiers[0].beacons_sent > 0


def test_config_validation():
    spec = parse_hierarchy(TOKEN)
    with pytest.raises(ValueError):
        StreamingConfig(spec=spec, duration_s=0.0)
    with pytest.raises(ValueError):
        StreamingConfig(spec=spec, wave_size=0)
    with pytest.raises(ValueError, match="ComputeSettings"):
        run_streaming(TOKEN, compute=None)


def test_elapsed_includes_the_profile_resolve(monkeypatch):
    resolve = streaming.profile_table

    def slow_resolve(*args):
        time.sleep(0.3)
        return resolve(*args)

    monkeypatch.setattr(streaming, "profile_table", slow_resolve)
    result = run_streaming("tiers:rbs@1x3:dense-ward", duration_s=2.0,
                           compute="exact")
    assert result.summary.n_nodes == 4
    assert result.elapsed_s >= 0.3


def test_checkpointing_unserialisable_specs_is_rejected(tmp_path):
    nameless = HierarchySpec(name="ad-hoc",
                             base=get_scenario("dense-ward"))
    with pytest.raises(ValueError, match="token-serialisable"):
        StreamingRunner(StreamingConfig(
            spec=nameless, checkpoint_dir=tmp_path)).run()


#: File the patched share pass appends its process id to.
_PIDS = ""

#: The unpatched share pass.
_SHARE = streaming._simulate_share


def _recording_share(payload):
    with open(_PIDS, "a") as log:
        log.write(f"{os.getpid()}\n")
    return _SHARE(payload)


def test_every_wave_runs_on_one_pool(tmp_path, monkeypatch):
    """Waves of 2 subtrees on 2 workers: one share of 1 in the caller
    and one in the block's single child, the same child every wave."""
    pids = tmp_path / "pids"
    monkeypatch.setattr(sys.modules[__name__], "_PIDS", str(pids))
    monkeypatch.setattr(streaming, "_simulate_share", _recording_share)
    before = children()
    result = run_streaming("tiers:ftsp@5x6/rbs@1x2:dense-ward",
                           duration_s=2.0, workers=2, wave_size=2)
    assert result.waves_run == 3
    ran = pids.read_text().split()
    me = str(os.getpid())
    assert len(ran) == 6 and ran.count(me) == 3
    assert len(set(ran) - {me}) == 1
    assert children() == before


def test_a_short_last_wave_gives_the_same_result():
    """Waves of 3, 3 and 1 subtrees, or of 5 and 2, on a 3-worker
    pool: the last wave holds fewer payloads than the pool has workers
    (one payload runs inline)."""
    token = "tiers:ftsp@5x7/rbs@1x2:dense-ward"
    serial = run_streaming(token, duration_s=2.0)
    for wave_size in (3, 5):
        pooled = run_streaming(token, duration_s=2.0, workers=3,
                               wave_size=wave_size)
        assert pooled.summary == serial.summary
        assert pooled.tiers == serial.tiers


def test_resume_with_nothing_left_forks_no_pool(tmp_path, monkeypatch):
    done = _run(workers=2, wave_size=2, checkpoint_dir=tmp_path)
    assert done.workers == 2

    def refuse(*args, **kwargs):
        raise AssertionError("forked a worker")

    monkeypatch.setattr(os, "fork", refuse)
    resumed = _run(workers=2, wave_size=2, checkpoint_dir=tmp_path)
    assert resumed.completed and resumed.waves_run == 0
    assert resumed.summary == done.summary


def test_max_waves_leaves_no_child_process(tmp_path):
    before = children()
    result = _run(workers=2, wave_size=2, checkpoint_dir=tmp_path,
                  max_waves=1)
    assert not result.completed and result.waves_run == 1
    assert children() == before


def test_a_worker_killed_mid_wave_raises_and_the_rerun_resumes(tmp_path):
    """The child's share of wave 2 kills its process: the run raises
    ``WorkerLost`` with wave 1 checkpointed, and a rerun resumes from
    there to the cold run's result."""
    token = "tiers:ftsp@5x6/rbs@1x2:dense-ward"
    outcome = run_fresh(f"""
        from repro.net import streaming

        share = streaming._simulate_share

        def dying(payload):
            if os.getpid() != MAIN and payload[1][0][0] >= 2:
                kill_self()
            return share(payload)

        streaming._simulate_share = dying

        def run():
            streaming.run_streaming(
                {token!r}, duration_s=2.0, workers=2, wave_size=2,
                checkpoint_dir={str(tmp_path)!r})
    """)
    assert outcome["raised"] == "WorkerLost"
    assert outcome["payloads"] == [1]
    assert outcome["seconds"] < 5.0 and outcome["no_child"]
    resumed = run_streaming(token, duration_s=2.0, workers=2, wave_size=2,
                            checkpoint_dir=tmp_path)
    assert resumed.resumed_subtrees == 2 and resumed.waves_run == 2
    cold = run_streaming(token, duration_s=2.0)
    assert resumed.summary == cold.summary
    assert resumed.tiers == cold.tiers


def _pass_sizes(monkeypatch, token, duration_s, cells=None):
    """Run ``token`` as one wave (``wave_size=None``), serially, with
    the pass cap at ``cells`` (None: the module's); returns the result
    and the subtree count of every pass."""
    sizes = []

    def recording(payload):
        sizes.extend(len(indices) for indices in payload[1])
        return _SHARE(payload)

    with monkeypatch.context() as patch:
        patch.setattr(streaming, "_simulate_share", recording)
        if cells is not None:
            patch.setattr(streaming, "PASS_CELLS", cells)
        result = run_streaming(token, duration_s=duration_s)
    return result, sizes


def test_one_wave_never_stacks_more_subtrees_than_the_cap(monkeypatch):
    # 3 nodes x 10 samples a subtree: a cap of 65 cells passes 2.
    token = "tiers:ftsp@5x7/rbs@1x2:dense-ward"
    whole = run_streaming(token, duration_s=2.0)
    capped, sizes = _pass_sizes(monkeypatch, token, 2.0, cells=65)
    assert sizes == [2, 2, 2, 1]
    assert capped.summary == whole.summary
    assert capped.tiers == whole.tiers
    # 41 nodes x 100 samples a subtree: the module's cap splits 12.
    token = "tiers:ftsp@5x12/rbs@1x40:intermittent-harvesting"
    _, sizes = _pass_sizes(monkeypatch, token, 20.0)
    assert sum(sizes) == 12 and len(sizes) > 1
    assert max(sizes) <= max(1, streaming.PASS_CELLS // (41 * 100))
    # A subtree bigger than the cap still gets a pass of its own.
    _, sizes = _pass_sizes(monkeypatch, token, 20.0, cells=100)
    assert sizes == [1] * 12
