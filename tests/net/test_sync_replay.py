"""The array sync replay against the reference event loop.

:func:`repro.net.timesync.sync_replay` states the replay rule on
arrays; ``reference_sync.replay_events`` feeds the same receptions,
resets and readings to stateful protocol objects one event at a time.
They must agree on every float, ``==``, for every protocol — with the
kernel run on many rows at once and on each row alone.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import SyncError, build_node, parse_scenario
from repro.net.hierarchy import hop_error_samples
from repro.net.node import error_grid
from repro.net.radio import (
    Beacon,
    Reception,
    beacon_schedule,
    receive_beacons,
)
from repro.net.timesync import FTSP_WINDOW, PROTOCOLS, sync_replay

from .reference_sync import replay_events


class _Clock:
    """The two questions the event loop asks of a node's clock."""

    def __init__(self, resets, readings):
        self.resets = resets
        self.readings = readings

    def resets_before(self, t):
        return bisect_right(self.resets, t)

    def read(self, t):
        return self.readings[t]


def _reference(protocol, times, node):
    """The event loop's errors and baselines for one node."""
    receptions = [
        Reception(beacon=Beacon(seq, rx, ref), rx_global=rx, rx_local=x)
        for seq, (rx, x, ref, heard) in enumerate(node["beacons"])
        if heard
    ]
    clock = _Clock(node["resets"], dict(zip(times, node["local"])))
    return replay_events(protocol, receptions, clock, times, node["parent"])


def _kernel(protocol, times, nodes):
    """The kernel's errors and baselines for nodes as rows."""
    beacons = max(len(node["beacons"]) for node in nodes)
    width = max(len(node["resets"]) for node in nodes)
    padded = [
        node["beacons"] + [(0.0, 0.0, 0.0, False)]
        * (beacons - len(node["beacons"]))
        for node in nodes
    ]
    stamps = np.array(
        [[b[:3] for b in row] for row in padded], dtype=float
    ).reshape(len(nodes), beacons, 3)
    heard = np.array([[b[3] for b in row] for row in padded], dtype=bool)
    resets = np.full((len(nodes), width), np.inf)
    for row, node in zip(resets, nodes):
        row[: len(node["resets"])] = node["resets"]
    errors, baselines = sync_replay(
        protocol,
        np.array(times),
        np.array([node["local"] for node in nodes]),
        np.array([node["parent"] for node in nodes]),
        stamps[:, :, 0],
        stamps[:, :, 1],
        stamps[:, :, 2],
        heard.reshape(len(nodes), beacons),
        resets,
    )
    return errors.tolist(), baselines.tolist()


def _check(times, nodes):
    """Every protocol: rows at once == each row alone == event loop."""
    for protocol in PROTOCOLS:
        batch = _kernel(protocol, times, nodes)
        for row, node in enumerate(nodes):
            want = _reference(protocol, times, node)
            alone = _kernel(protocol, times, [node])
            assert (batch[0][row], batch[1][row]) == want, (protocol, row)
            assert (alone[0][0], alone[1][0]) == want, (protocol, row)


#: Instants on a coarse grid, so receptions, resets and samples tie.
GRID = st.sampled_from([0.25 * i for i in range(1, 25)])
INSTANT = st.one_of(GRID, st.floats(0.0, 6.0))
VALUE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
#: Local stamps from a tiny set too, so FTSP windows hit sxx == 0.
STAMP = st.one_of(st.sampled_from([1.0, 2.5]), VALUE)
BEACON = st.tuples(INSTANT, STAMP, VALUE,
                   st.sampled_from([True, True, True, False]))


@st.composite
def fleets(draw):
    times = sorted(set(draw(st.lists(GRID, min_size=1, max_size=12))))
    node = st.fixed_dictionaries({
        "beacons": st.lists(BEACON, max_size=20),
        "resets": st.lists(INSTANT, max_size=4).map(sorted),
        "local": st.lists(VALUE, min_size=len(times),
                          max_size=len(times)),
        "parent": st.lists(VALUE, min_size=len(times),
                           max_size=len(times)),
    })
    return times, draw(st.lists(node, min_size=1, max_size=4))


def _node(beacons, resets=(), samples=4):
    """A hand-built node: readings 10 + t local, t parent."""
    times = [1.0 * (i + 1) for i in range(samples)]
    return times, {
        "beacons": list(beacons),
        "resets": list(resets),
        "local": [10.0 + t for t in times],
        "parent": list(times),
    }


def _edge_cases():
    """Hand-built nodes, one per edge of the replay rule."""
    yield _node([(2.0, 11.5, 2.1, True), (1.0, 10.6, 0.9, True)])
    # A reception exactly at a sample instant counts at that sample.
    yield _node([(1.0, 11.0, 1.2, True), (2.0, 12.0, 2.05, True)])
    # Receptions tied with each other count in beacon order.
    yield _node([(1.5, 11.0, 1.4, True), (1.5, 11.3, 1.6, True)])
    # A reset exactly at a reception keeps that reception.
    yield _node([(1.0, 10.5, 0.9, True), (2.0, 11.7, 2.1, True)],
                resets=[2.0])
    # A reset before the first sample, and one between receptions.
    yield _node([(0.5, 10.4, 0.6, True), (1.5, 11.6, 1.4, True),
                 (2.5, 12.1, 2.6, True)], resets=[0.25, 2.0])
    # More than FTSP_WINDOW beacons in one epoch.
    yield _node([(0.1 * (i + 1), 10.0 + 0.11 * i, 0.1 * i * i, True)
                 for i in range(FTSP_WINDOW + 4)])
    # Equal local stamps: sxx == 0, FTSP falls back to the last pair.
    yield _node([(0.5, 3.0, 0.4, True), (1.5, 3.0, 1.6, True)])
    # Lost beacons and a node that heard nothing.
    yield _node([(0.5, 10.5, 0.5, False), (1.5, 11.4, 1.6, True)])
    yield _node([(0.5, 10.5, 0.5, False)])
    yield _node([])


@pytest.mark.parametrize("case", list(_edge_cases()))
def test_replay_edge_cases_match_the_event_loop(case):
    times, node = case
    _check(times, [node])


def test_replay_edge_cases_match_as_one_batch():
    cases = list(_edge_cases())
    _check(cases[0][0], [node for _, node in cases])


@settings(max_examples=300, deadline=None)
@given(fleets())
@example(([1.0, 2.0], [
    {"beacons": [(1.0, 1.0, 0.5, True), (0.5, 1.0, 0.1, True)],
     "resets": [0.5], "local": [0.0, -0.0], "parent": [-0.0, 0.0]},
]))
def test_replay_matches_the_event_loop(fleet):
    times, nodes = fleet
    _check(times, nodes)


@pytest.mark.parametrize("scenario, duration", [
    ("generated-swarm", 10.0),
    ("intermittent-harvesting", 20.0),
    ("drifting-wearables", 12.0),
])
def test_flat_nodes_replay_like_the_event_loop(scenario, duration):
    """Real nodes as the rows of one call, as a flat shard replays
    them: each row masked to the beacons it heard, resets padded to
    the widest row.  Each row alone gives the same bits."""
    spec = parse_scenario(scenario)
    reference = build_node(spec, 0, 3, duration)
    beacons = beacon_schedule(spec.beacon_period_s, duration,
                              reference.clock)
    times, _ = error_grid(duration)
    readings = [reference.clock.read(t) for t in times]
    nodes = [build_node(spec, node_id, 3, duration)
             for node_id in range(1, 13)]
    heard = [receive_beacons(beacons, node.clock, spec.radio,
                             node._rng_radio) for node in nodes]
    clocks = [node.clock for node in nodes]
    assert any(len(row) < len(beacons) for row in heard)
    if spec.power_loss_rate_hz:
        assert len({len(clock.reset_times) for clock in clocks}) > 1
    for protocol in PROTOCOLS:
        errors, baselines = hop_error_samples(
            protocol, beacons, heard, clocks, times, readings)
        for row, (received, clock) in enumerate(zip(heard, clocks)):
            want = replay_events(protocol, received, clock, times,
                                 readings)
            assert (errors[row].tolist(), baselines[row].tolist()) == want
            alone = hop_error_samples(protocol, beacons, [received],
                                      [clock], times, readings)
            assert (alone[0][0].tolist(), alone[1][0].tolist()) == want


def test_unknown_protocols_are_rejected():
    empty = np.zeros((1, 0))
    with pytest.raises(ValueError, match="unknown sync protocol"):
        sync_replay("ntp", np.ones(1), np.ones((1, 1)), np.ones((1, 1)),
                    empty, empty, empty)


def test_error_statistics_sum_left_to_right():
    """CPython 3.12's compensated ``sum()`` would give 0.1 here."""
    assert SyncError.from_samples([0.1] * 10).mean_abs_s \
        == 0.09999999999999999
    one = SyncError(count=1, mean_abs_s=0.1, rms_s=0.1, max_abs_s=0.1)
    assert SyncError.merged([one] * 10).mean_abs_s == 0.09999999999999999
