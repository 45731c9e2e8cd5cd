"""Tests for the inter-node sync protocols and their acceptance bar.

The protocol unit tests run against the reference classes, the oracle
``test_sync_replay.py`` holds the array kernel to.
"""

import pytest

from repro.eval.netexp import run_net
from repro.net.fleet import run_fleet

from .reference_sync import (
    FtspSync,
    NoSync,
    ReferenceBroadcastSync,
    make_protocol,
)


def test_nosync_trusts_the_local_clock():
    proto = NoSync()
    proto.on_beacon(123.0, 1.0)
    assert proto.estimate_reference(42.0) == 42.0


def test_rbs_jumps_to_the_last_offset():
    proto = ReferenceBroadcastSync()
    assert proto.estimate_reference(5.0) == 5.0  # nothing heard yet
    proto.on_beacon(100.0, 10.0)
    assert proto.estimate_reference(12.0) == pytest.approx(102.0)
    proto.on_beacon(200.0, 20.0)  # only the latest beacon matters
    assert proto.estimate_reference(21.0) == pytest.approx(201.0)
    proto.on_reboot()
    assert proto.estimate_reference(5.0) == 5.0


def test_ftsp_recovers_offset_and_skew_exactly():
    # Reference runs at ref = 3.0 + 1.0002 * local: noiseless pairs
    # must be reproduced exactly, including extrapolation.
    proto = FtspSync(window=8)
    for local in (10.0, 20.0, 30.0, 40.0):
        proto.on_beacon(3.0 + 1.0002 * local, local)
    assert proto.estimate_reference(100.0) == \
        pytest.approx(3.0 + 1.0002 * 100.0, abs=1e-9)


def test_ftsp_degrades_gracefully():
    proto = FtspSync()
    assert proto.estimate_reference(7.0) == 7.0  # no pairs: local
    proto.on_beacon(50.0, 5.0)
    assert proto.estimate_reference(6.0) == pytest.approx(51.0)  # offset
    proto.on_reboot()
    assert proto.estimate_reference(7.0) == 7.0


def test_ftsp_window_must_hold_two_pairs():
    with pytest.raises(ValueError):
        FtspSync(window=1)


def test_make_protocol_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown sync protocol"):
        make_protocol("ntp")
    assert make_protocol("ftsp").name == "ftsp"


# ---------------------------------------------------------------------------
# Acceptance: >= 10x steady-state error reduction on drifting wearables.
# ---------------------------------------------------------------------------

def test_sync_beats_unsynchronized_drift_by_10x():
    report = run_net("drifting-wearables", n_nodes=12, duration_s=10.0,
                     workers=1, seed=7)
    assert report.unsynced.count == report.synced.count > 0
    assert report.improvement >= 10.0
    # Free-running ±30-120 ppm clocks with ±0.25 s boot offsets sit
    # tens of milliseconds apart; synced they track within ~1 ms.
    assert report.unsynced.mean_abs_s > 10e-3
    assert report.synced.mean_abs_s < 5e-3


def test_free_running_baseline_matches_a_nosync_fleet():
    # The counterfactual recorded alongside the active protocol must
    # equal what an actual protocol="none" fleet measures.
    common = dict(n_nodes=6, duration_s=6.0, seed=13)
    ftsp = run_fleet("drifting-wearables", protocol="ftsp", **common)
    none = run_fleet("drifting-wearables", protocol="none", **common)
    assert ftsp.summary.unsync == none.summary.sync
    assert ftsp.summary.steady_unsync == none.summary.steady_sync
    assert none.summary.sync == none.summary.unsync


def test_skew_compensation_beats_offset_only_sync():
    common = dict(n_nodes=12, duration_s=20.0, seed=11)
    rbs = run_fleet("drifting-wearables", protocol="rbs", **common)
    ftsp = run_fleet("drifting-wearables", protocol="ftsp", **common)
    assert ftsp.summary.steady_sync.mean_abs_s < \
        rbs.summary.steady_sync.mean_abs_s
