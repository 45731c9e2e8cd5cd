"""Fleet runner tests: determinism, sharding edge cases, scale.

Every run's result is checked by :func:`check_invariants` before the
test reads it.
"""

import pytest

from repro.net.fleet import FleetConfig, FleetRunner
from repro.net.node import REFERENCE_NODE_ID
from repro.net.scenarios import get_scenario
from repro.net.stats import SyncError

from .invariants import check_invariants, run_fleet


def _config(n_nodes, scenario="dense-ward", duration_s=4.0, seed=3):
    return FleetConfig(scenario=get_scenario(scenario), n_nodes=n_nodes,
                       duration_s=duration_s, seed=seed)


def _run(config, workers=1):
    """``FleetRunner(config).run(workers)``, invariants checked."""
    return check_invariants(FleetRunner(config).run(workers=workers))


def test_serial_and_parallel_are_bit_identical():
    config = _config(7)
    serial = _run(config, workers=1)
    parallel = _run(config, workers=3)
    assert parallel.mode == "parallel"
    assert serial.mode == "serial"
    assert parallel.summary == serial.summary
    assert parallel.nodes == serial.nodes


def test_shard_count_not_dividing_node_count():
    config = _config(10)
    baseline = _run(config, workers=1)
    # 10 nodes on 4 workers -> shards of 3, 3, 3, 1.
    uneven = _run(config, workers=4)
    assert uneven.shards == 4
    assert uneven.summary == baseline.summary
    assert uneven.nodes == baseline.nodes


def test_zero_node_fleet_is_empty_but_valid():
    for workers in (1, 2):
        result = _run(_config(0), workers=workers)
        assert result.nodes == ()
        assert result.summary.n_nodes == 0
        assert result.summary.total_power_uw == 0
        assert result.summary.sync == SyncError()


def test_single_node_fleet_is_the_reference_alone():
    result = _run(_config(1), workers=2)
    assert len(result.nodes) == 1
    node = result.nodes[0]
    assert node.node_id == REFERENCE_NODE_ID
    assert node.protocol == "reference"
    assert node.beacons_heard == 0
    assert result.summary.beacons_sent > 0  # it still broadcasts
    assert result.summary.sync.count == 0  # nobody to be out of sync


def test_same_seed_reproduces_different_seed_differs():
    a = _run(_config(5, seed=42))
    b = _run(_config(5, seed=42))
    c = _run(_config(5, seed=43))
    assert a.summary == b.summary and a.nodes == b.nodes
    assert c.summary != a.summary


def test_radio_energy_lands_in_the_power_report():
    result = _run(_config(3))
    reference, *followers = result.nodes
    # The hub pays per-beacon TX energy on top of the listening floor.
    spec = get_scenario("dense-ward").radio
    assert reference.radio_uw > spec.listen_uw
    for node in followers:
        assert node.power.categories["radio"] == node.radio_uw
        assert node.radio_uw > 0.0
    # Radio is part of the node's total power decomposition.
    assert reference.power.total_uw > sum(
        v for k, v in reference.power.categories.items() if k != "radio")


def test_runner_validates_arguments():
    with pytest.raises(ValueError):
        FleetRunner(_config(-1))
    with pytest.raises(ValueError):
        FleetRunner(FleetConfig(scenario=get_scenario("dense-ward"),
                                n_nodes=1, duration_s=0.0))
    runner = FleetRunner(_config(2))
    with pytest.raises(ValueError):
        runner.run(workers=0)


def test_merged_sync_error_matches_global_statistics():
    result = _run(_config(6, scenario="drifting-wearables"))
    followers = [n for n in result.nodes if n.node_id != 0]
    merged = SyncError.merged([n.sync for n in followers])
    assert merged.count == sum(n.sync.count for n in followers)
    assert merged.max_abs_s == max(n.sync.max_abs_s for n in followers)
    weighted = sum(n.sync.count * n.sync.mean_abs_s for n in followers)
    assert merged.mean_abs_s == pytest.approx(weighted / merged.count)


# ---------------------------------------------------------------------------
# Acceptance: >= 200 drifting nodes for >= 10 s, parallel == serial.
# ---------------------------------------------------------------------------

def test_200_drifting_nodes_parallel_matches_serial():
    common = dict(n_nodes=200, duration_s=10.0, seed=1)
    serial = run_fleet("drifting-wearables", workers=1, **common)
    parallel = run_fleet("drifting-wearables", workers=4, **common)
    assert parallel.mode == "parallel" and parallel.shards == 4
    assert serial.summary.n_nodes == 200
    assert serial.summary.duration_s == 10.0
    assert parallel.summary == serial.summary
    assert parallel.nodes == serial.nodes
    # The fleet really is heterogeneous: drifts spread both ways and
    # several applications are mapped.
    drifts = {round(n.drift_ppm, 3) for n in serial.nodes}
    assert len(drifts) > 100
    assert min(n.drift_ppm for n in serial.nodes) < 0 < \
        max(n.drift_ppm for n in serial.nodes)
    assert len({n.app_name for n in serial.nodes}) > 1
