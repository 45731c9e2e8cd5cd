"""The flat fleet's shard pass against the per-node path it replaced.

:class:`repro.net.fleet.FleetRunner` builds each node once, inside its
shard, resolves the shard's compute there, replays the shard's
followers as the rows of one sync replay and folds each row's error
moments.  ``reference_fleet`` runs the same fleet node by node; the two
must agree ``==`` on every node and on the summary.  Every run's result
is also checked by :func:`check_invariants`.
"""

import os
import sys

import numpy as np
import pytest

from repro import obs
from repro.net.compute import clear_process_caches
from repro.net.fleet import FleetConfig, FleetRunner
from repro.net.scenarios import get_scenario, with_protocol
from repro.net.stats import Moments, SyncError
from repro.sysc.engine import simulate_batch

from .invariants import check_invariants, run_fleet
from .reference_fleet import from_samples, reference_fleet

PRESETS = ("dense-ward", "drifting-wearables", "intermittent-harvesting",
           "generated-swarm", "mixed-clinic")

#: No error sample (0.1 s), no beacon (0.5 s), one or two beacons (4 s)
#: and more beacons than an FTSP window, with resets (20 s).
DURATIONS = (0.1, 0.5, 4.0, 20.0)

#: Workers: serial, two shards of 4 and 3, and three shards of 3, 3
#: and 1 of the seven nodes.
WORKERS = (1, 2, 3)


@pytest.mark.parametrize("duration", DURATIONS)
@pytest.mark.parametrize("preset", PRESETS)
def test_shard_pass_equals_the_per_node_path(preset, duration):
    for protocol in ("none", "rbs", "ftsp"):
        for compute in (True, False):
            config = FleetConfig(
                scenario=with_protocol(get_scenario(preset), protocol),
                n_nodes=7, duration_s=duration, seed=11, compute=compute)
            nodes, summary = reference_fleet(config)
            for workers in WORKERS:
                result = check_invariants(FleetRunner(config).run(workers))
                case = (protocol, compute, workers)
                assert result.nodes == nodes, case
                assert result.summary == summary, case


def _rows():
    """Rows of one width, with zeros, negative zeros and ties."""
    rng = np.random.default_rng(5)
    rows = rng.normal(0.0, 1e-3, (6, 9))
    rows[1] = 0.0
    rows[2] = -0.0
    rows[3, ::2] = -0.0
    rows[4] = rows[4, 0]
    return rows


@pytest.mark.parametrize("width", [0, 1, 2, 9])
def test_row_fold_equals_the_python_loop(width):
    rows = _rows()[:, :width]
    folded = Moments.rows(np.abs(rows))
    assert len(folded) == len(rows)
    for row, moments in zip(rows.tolist(), folded):
        assert moments.error() == from_samples(row)
        assert SyncError.from_samples(row) == from_samples(row)
    # Steady halves are column slices of the same rows.
    steady = Moments.rows(np.abs(rows)[:, 3:])
    for row, moments in zip(rows.tolist(), steady):
        assert moments.error() == from_samples(row[3:])


def test_one_row_fold_of_nothing_is_empty():
    assert SyncError.from_samples([]) == SyncError()
    assert Moments.rows(np.zeros((3, 0))) == [Moments()] * 3


def _fleet_timings(compute, workers):
    """The fleet run and its span timings."""
    with obs.collecting() as registry:
        result = run_fleet("generated-swarm", n_nodes=48, duration_s=10.0,
                           seed=3, compute=compute, workers=workers)
    return result, registry.snapshot()["timings"]


@pytest.mark.parametrize("compute", ["exact", None])
def test_shard_spans_cover_the_fleet_run(compute):
    spans = ("net.fleet.build", "net.compute.resolve", "net.fleet.replay",
             "net.fleet.fold")
    # Two workers: the child's shard spans merge into the caller's.
    result, timings = _fleet_timings(compute, workers=2)
    assert [timings[name]["count"] for name in spans] == [result.shards] * 4
    # Coverage on one process: two processes' span time over one wall
    # clock reads above 1 on two free CPUs and below it on a busy host.
    _, timings = _fleet_timings(compute, workers=1)
    covered = sum(timings[name]["total_s"] for name in spans)
    assert covered >= 0.9 * timings["net.fleet.run"]["total_s"]


def _counters(**kwargs) -> dict:
    """Deterministic metrics of a 24-node exact generated-swarm fleet."""
    with obs.collecting() as registry:
        run_fleet("generated-swarm", n_nodes=24, duration_s=4.0, seed=5,
                  compute="exact", **kwargs)
    return registry.deterministic()


def test_flat_fleet_counters_match_across_workers_and_shards():
    serial = _counters()
    # Each node is bound once in its shard, plus the reference's
    # schedule build in the main process.
    assert serial["counters"]["net.apps.resolved"] == 25
    assert serial["counters"]["net.compute.requests"] == 24
    for kwargs in ({"workers": 2}, {"workers": 3}):
        assert _counters(**kwargs) == serial, kwargs


def test_flat_fleet_counters_match_with_cold_and_warm_cache(tmp_path):
    clear_process_caches()
    cold = _counters(workers=2, compute_cache=str(tmp_path))
    assert list(tmp_path.rglob("*.json"))
    clear_process_caches()
    warm = _counters(compute_cache=str(tmp_path))
    assert warm == cold


#: File the patched ``simulate_batch`` appends a process id to, once
#: per simulated row.
_PIDS = ""


def _recording_simulate_batch(app, mode, signatures, *args, **kwargs):
    with open(_PIDS, "a") as log:
        log.write(f"{os.getpid()}\n" * len(signatures))
    return simulate_batch(app, mode, signatures, *args, **kwargs)


def test_parallel_exact_fleet_resolves_compute_in_the_workers(
    tmp_path, monkeypatch
):
    import repro.net.compute

    pids = tmp_path / "pids"
    monkeypatch.setattr(sys.modules[__name__], "_PIDS", str(pids))
    # Forked workers inherit the patch and an empty process memo.
    monkeypatch.setattr(
        repro.net.compute, "simulate_batch", _recording_simulate_batch
    )
    clear_process_caches()
    result = run_fleet("generated-swarm", n_nodes=16, duration_s=4.0,
                       seed=5, compute="exact", workers=2)
    assert result.mode == "parallel"
    simulated = pids.read_text().split()
    assert len(simulated) >= result.compute.distinct_keys
    # The caller resolves its own share, and the one child its own.
    me = str(os.getpid())
    assert me in simulated and len(set(simulated) - {me}) == 1
