"""The per-node flat-fleet path the shard pass replaced.

Every node is built twice: once to content-address its compute, which
resolves in one batch before any node runs, and once more to run.  A
node then replays its own receptions as a one-row
:func:`~repro.net.timesync.sync_replay` call over the beacons it heard
and folds its four error series in Python loops; the summary merges
the followers' errors, leaving the reference out.  Inline compute runs
scalar :func:`~repro.sysc.engine.simulate` on the node's full beat
schedule, normal beats included.
:class:`repro.net.fleet.FleetRunner` must equal it ``==``, node for
node and in the summary.
"""

from __future__ import annotations

import math

import numpy as np

from repro.net.clock import read_clocks
from repro.net.compute import report_from_payload, resolve
from repro.net.fleet import FleetConfig, FleetRunner
from repro.net.node import (
    REFERENCE_NODE_ID,
    NodeResult,
    build_node,
    error_grid,
)
from repro.net.radio import RadioEnergy, receive_beacons
from repro.net.stats import FleetSummary, GroupStats, SyncError
from repro.power.energy import sum_left
from repro.net.timesync import sync_replay
from repro.sysc.engine import simulate, uniform_schedule


def from_samples(errors_s: list[float]) -> SyncError:
    """Summarise signed error samples in a left-to-right Python loop."""
    if not errors_s:
        return SyncError()
    n = len(errors_s)
    sum_abs = sum_sq = 0.0
    for e in errors_s:
        sum_abs += abs(e)
        sum_sq += e * e
    return SyncError(
        count=n,
        mean_abs_s=sum_abs / n,
        rms_s=math.sqrt(sum_sq / n),
        max_abs_s=max(abs(e) for e in errors_s),
    )


def one_row_replay(protocol, receptions, clock, sample_times, readings):
    """One node's errors and baselines over only the beacons it heard."""
    stamps = [
        (r.rx_global, r.rx_local, r.beacon.ref_timestamp) for r in receptions
    ]
    times = np.asarray(sample_times, dtype=float)
    resets = np.array([clock.reset_times]) if clock.reset_times else None
    own = np.array([[clock.spec.initial_offset_s], [clock.spec.drift_ppm]])
    errors, baselines = sync_replay(
        protocol,
        times,
        read_clocks(*own, resets, times),
        np.array([readings], dtype=float),
        *np.array(stamps).reshape(-1, 3).T[:, None],
        resets=resets,
    )
    return errors[0].tolist(), baselines[0].tolist()


def simulate_node(node, beacons, sample_times, readings, entry=None):
    """One node's result: inline compute unless its resolved ``entry``,
    a ``(key, payload)`` pair, is given."""
    if entry is None:
        schedule = uniform_schedule(
            node.duration_s,
            node.binding.app.fs,
            bpm=node.bpm,
            abnormal_ratio=node.scenario.abnormal_ratio,
        )
        power = simulate(
            node.binding.app,
            node.binding.mode,
            schedule,
            duration_s=node.duration_s,
            num_cores=node.binding.num_cores,
            mapping=node.binding.plan,
        ).power
    else:
        power = report_from_payload(entry[1])
    energy = RadioEnergy()
    errors: list[float] = []
    base: list[float] = []
    if node.is_reference:
        energy.tx_messages = len(beacons)
    else:
        receptions = receive_beacons(
            beacons, node.clock, node.scenario.radio, node._rng_radio
        )
        energy.rx_messages = len(receptions)
        errors, base = one_row_replay(
            node.scenario.protocol, receptions, node.clock, sample_times,
            readings,
        )
    _, steady = error_grid(node.duration_s)
    radio_uw = energy.average_uw(node.scenario.radio, node.duration_s)
    power.categories["radio"] = radio_uw
    return NodeResult(
        node_id=node.node_id,
        app_name=node.app_name,
        protocol="reference" if node.is_reference else node.scenario.protocol,
        drift_ppm=node.clock.spec.drift_ppm,
        bpm=node.bpm,
        resets=node.clock.resets_before(node.duration_s),
        beacons_heard=energy.rx_messages,
        radio_uw=radio_uw,
        power=power,
        sync=from_samples(errors),
        steady_sync=from_samples(errors[steady:]),
        unsync=from_samples(base),
        steady_unsync=from_samples(base[steady:]),
        token=node.binding.token,
        family=node.binding.family,
        policy=node.binding.policy,
        floor_mhz=node.binding.floor_mhz,
        repairs=node.binding.repairs,
        compute_key=entry[0] if entry is not None else "",
        compute_tier="exact" if entry is not None else "",
    )


def _groups(results, key) -> tuple[GroupStats, ...]:
    """Per-group aggregates over a node grouping key, name order."""
    groups: dict[str, list[NodeResult]] = {}
    for node in results:
        groups.setdefault(key(node), []).append(node)
    stats = []
    for name in sorted(groups):
        members = groups[name]
        followers = [n for n in members if n.node_id != REFERENCE_NODE_ID]
        stats.append(GroupStats(
            name=name,
            nodes=len(members),
            mean_power_uw=sum_left(n.power.total_uw for n in members)
            / len(members),
            mean_floor_mhz=sum_left(n.floor_mhz for n in members)
            / len(members),
            repairs=sum(n.repairs for n in members),
            steady_sync=SyncError.merged([n.steady_sync for n in followers]),
        ))
    return tuple(stats)


def summarise(config, results, beacons) -> FleetSummary:
    """The fleet summary of per-node results in node order."""
    n = len(results)
    total_power = sum_left(node.power.total_uw for node in results)
    total_radio = sum_left(node.radio_uw for node in results)
    followers = [
        node for node in results if node.node_id != REFERENCE_NODE_ID
    ]
    return FleetSummary(
        scenario=config.scenario.name,
        protocol=config.scenario.protocol,
        n_nodes=n,
        duration_s=config.duration_s,
        total_power_uw=total_power,
        mean_power_uw=total_power / n if n else 0.0,
        mean_radio_uw=total_radio / n if n else 0.0,
        sync=SyncError.merged([f.sync for f in followers]),
        steady_sync=SyncError.merged([f.steady_sync for f in followers]),
        unsync=SyncError.merged([f.unsync for f in followers]),
        steady_unsync=SyncError.merged([f.steady_unsync for f in followers]),
        beacons_sent=len(beacons) if n else 0,
        beacons_heard=sum(node.beacons_heard for node in results),
        power_loss_resets=sum(node.resets for node in results),
        source=config.scenario.apps.kind,
        families=_groups(results, lambda node: node.family or node.app_name),
        policies=_groups(results, lambda node: node.policy or "paper"),
    )


def reference_fleet(
    config: FleetConfig,
) -> tuple[tuple[NodeResult, ...], FleetSummary]:
    """``(nodes, summary)`` of a fleet run node by node."""
    beacons, sample_times, readings = FleetRunner(config)._schedule()

    def node(node_id):
        return build_node(
            config.scenario, node_id, config.seed, config.duration_s
        )

    table = None
    if config.compute and config.n_nodes:
        table = resolve(
            [node(i).compute_request() for i in range(config.n_nodes)],
            config.compute_cache,
        )
    results = []
    for node_id in range(config.n_nodes):
        built = node(node_id)
        entry = None
        if table is not None:
            key = built.compute_request().key
            entry = (key, table[key])
        results.append(
            simulate_node(built, beacons, sample_times, readings, entry)
        )
    return tuple(results), summarise(config, results, beacons)
