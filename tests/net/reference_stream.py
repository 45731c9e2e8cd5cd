"""The two streaming executors the share pass replaced.

:func:`reference_subtree` is the per-subtree array pass: one tier-0
subtree per call, members as rows, each bound by its own
``AppSource.bind``.  It draws what the share pass draws, so it is a
*bitwise* oracle for :func:`repro.net.streaming._simulate_share`.

:func:`reference_tiers` is the older per-member walk.  Every member is
built on its own (:func:`repro.net.hierarchy.build_member`'s
``random`` streams keyed by its path), hears its parent's beacons
through :func:`repro.net.radio.receive_beacons`, is replayed by the
event loop (:func:`reference_sync.replay_events`) and folds into
per-tier :class:`~repro.net.stats.SyncError` aggregates through
:meth:`SyncError.merged`, depth-first.  Its draws differ from the
array passes' (other generators, same distributions), so it is a
*statistical* oracle for :mod:`repro.net.streaming`, not a bitwise
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.net.clock import read_clocks
from repro.net.hierarchy import (
    ROOT_PATH,
    HierarchySpec,
    _stream,
    bindings_power_uw,
    build_member,
    draw_members,
    profile_table,
)
from repro.net.node import error_grid
from repro.net.radio import RadioEnergy, beacon_schedule, receive_beacons
from repro.net.stats import Moments, SyncError, TierSummary
from repro.net.streaming import _TierState
from repro.net.timesync import sync_replay

from .reference_sync import replay_events


def _moments_of(magnitude: np.ndarray) -> Moments:
    """Moments of a matrix of ``|error|``, summed in row-major order."""
    return Moments.rows(magnitude.reshape(1, -1))[0]


def reference_subtree(payload: tuple) -> list[_TierState]:
    """Fold one tier-0 subtree down to per-tier partial states.

    One array pass per tier, members as rows in path order: row ``r``
    hangs off row ``r // fan_out`` of the tier above.  The payload is
    ``(config, index, *context)``: a share payload's config and run
    context around one subtree index.
    """
    config, index, grids, times, steady, profiles, refs, readings = payload
    spec, seed, duration_s = config.spec, config.seed, config.duration_s
    parent_refs, parent_readings = np.array([refs]), np.array([readings])
    base = spec.base
    apps = _stream(seed, "tiers", str(index), "apps")
    parent_eff = parent_base = None
    parts = [_TierState() for _ in spec.tiers]
    for tier_index, (tier, part) in enumerate(zip(spec.tiers, parts)):
        fan = tier.fan_out if tier_index else 1
        rows = len(parent_readings) * fan
        beacons = grids[tier_index]
        bindings = [
            base.apps.bind(apps, base.abnormal_ratio) for _ in range(rows)
        ]
        drift, offset, resets, heard, delay, noise = draw_members(
            spec, seed, [index], tier_index, rows, len(beacons), duration_s
        )
        rx_global = beacons + delay
        rx_local = read_clocks(offset, drift, resets, rx_global) + noise
        local = read_clocks(offset, drift, resets, times)
        hop, base_hop = sync_replay(
            tier.protocol,
            times,
            local,
            np.repeat(parent_readings, fan, axis=0),
            rx_global,
            rx_local,
            np.repeat(parent_refs, fan, axis=0),
            heard,
            resets,
        )
        # First-order additive composition across hops.
        eff, base_eff = hop, base_hop
        if parent_eff is not None:
            eff = hop + np.repeat(parent_eff, fan, axis=0)
            base_eff = base_hop + np.repeat(parent_base, fan, axis=0)
        energy = RadioEnergy(rx_messages=heard.sum(axis=1))
        if tier_index + 1 < len(spec.tiers):
            children = grids[tier_index + 1]
            energy.tx_messages = len(children)
            parts[tier_index + 1].beacons_sent = rows * len(children)
        radio = energy.average_uw(base.radio, duration_s)
        power, part.floor_sum_mhz, part.repairs = bindings_power_uw(
            [(binding, 1) for binding in bindings], base, duration_s,
            profiles,
        )
        part.nodes = rows
        part.radio_sum_uw = float(radio.cumsum()[-1])
        part.power_sum_uw = power + part.radio_sum_uw
        part.beacons_heard = int(energy.rx_messages.sum())
        if resets is not None:
            part.resets = int(np.isfinite(resets).sum())
        series = {"hop_sync": hop, "sync": eff, "unsync": base_eff}
        for name, errors in series.items():
            magnitude = np.abs(errors)
            setattr(part, name, _moments_of(magnitude))
            setattr(part, f"steady_{name}", _moments_of(magnitude[:, steady:]))
        if tier_index + 1 < len(spec.tiers):
            parent_refs = read_clocks(offset, drift, None, children)
            parent_readings, parent_eff, parent_base = local, eff, base_eff
    return parts

#: Error aggregates of a tier, in report order.
ERROR_FIELDS = (
    "hop_sync",
    "steady_hop_sync",
    "sync",
    "steady_sync",
    "unsync",
    "steady_unsync",
)


def compose_errors(
    hop: list[float], parent: list[float] | None
) -> list[float]:
    """First-order additive composition of a hop with its parent.

    Tier-0 members pass ``None`` (their parent *is* the backbone) and
    get a copy of their hop errors.
    """
    if parent is None:
        return list(hop)
    return [h + p for h, p in zip(hop, parent)]


@dataclass
class TierState:
    """Running merge of one tier: scalar sums and SyncErrors."""

    nodes: int = 0
    power_sum_uw: float = 0.0
    beacons_sent: int = 0
    beacons_heard: int = 0
    resets: int = 0
    hop_sync: SyncError = field(default_factory=SyncError)
    steady_hop_sync: SyncError = field(default_factory=SyncError)
    sync: SyncError = field(default_factory=SyncError)
    steady_sync: SyncError = field(default_factory=SyncError)
    unsync: SyncError = field(default_factory=SyncError)
    steady_unsync: SyncError = field(default_factory=SyncError)

    def add_node(self, series: dict[str, list[float]]) -> None:
        for name in ERROR_FIELDS:
            merged = SyncError.merged(
                [getattr(self, name), SyncError.from_samples(series[name])]
            )
            setattr(self, name, merged)


def walk(
    spec: HierarchySpec,
    tier_index: int,
    path: str,
    seed: int,
    duration_s: float,
    beacons: list,
    parent_readings: list[float],
    parent_eff: list[float] | None,
    parent_base: list[float] | None,
    sample_times: list[float],
    steady: int,
    parts: list[TierState],
    profiles: dict[tuple, float],
) -> None:
    """Simulate one member and, depth-first, everything under it."""
    tier = spec.tiers[tier_index]
    binding, clock = build_member(spec, tier_index, path, seed, duration_s)
    receptions = receive_beacons(
        beacons, clock, spec.base.radio,
        _stream(seed, "tiers", path, "radio")
    )
    hop, base_hop = replay_events(
        tier.protocol, receptions, clock, sample_times, parent_readings
    )
    eff = compose_errors(hop, parent_eff)
    base_eff = compose_errors(base_hop, parent_base)

    energy = RadioEnergy(rx_messages=len(receptions))
    last = tier_index == len(spec.tiers) - 1
    schedule: list = []
    if not last:
        child = spec.tiers[tier_index + 1]
        schedule = beacon_schedule(child.beacon_period_s, duration_s, clock)
        energy.tx_messages = len(schedule)

    part = parts[tier_index]
    part.nodes += 1
    part.power_sum_uw += bindings_power_uw(
        [(binding, 1)], spec.base, duration_s, profiles
    )[0]
    part.power_sum_uw += energy.average_uw(spec.base.radio, duration_s)
    part.resets += clock.resets_before(duration_s)
    part.beacons_heard += len(receptions)
    part.add_node({
        "hop_sync": hop,
        "steady_hop_sync": hop[steady:],
        "sync": eff,
        "steady_sync": eff[steady:],
        "unsync": base_eff,
        "steady_unsync": base_eff[steady:],
    })

    if not last:
        parts[tier_index + 1].beacons_sent += len(schedule)
        readings = [clock.read(t) for t in sample_times]
        for child_index in range(spec.tiers[tier_index + 1].fan_out):
            walk(spec, tier_index + 1, f"{path}.{child_index}", seed,
                 duration_s, schedule, readings, eff, base_eff,
                 sample_times, steady, parts, profiles)


def reference_tiers(
    spec: HierarchySpec, seed: int, duration_s: float
) -> tuple[TierSummary, ...]:
    """Per-tier summaries of a whole fleet, walked member by member.

    Only the fields the walk tracks are filled in (node, beacon and
    reset counts, mean power and the six error aggregates).
    """
    _, root_clock = build_member(spec, -1, ROOT_PATH, seed, duration_s)
    beacons = beacon_schedule(
        spec.tiers[0].beacon_period_s, duration_s, root_clock
    )
    sample_times, steady = error_grid(duration_s)
    root_readings = [root_clock.read(t) for t in sample_times]
    profiles, _ = profile_table(spec.base, duration_s)
    parts = [TierState() for _ in spec.tiers]
    parts[0].beacons_sent = len(beacons)
    for index in range(spec.subtrees):
        walk(spec, 0, str(index), seed, duration_s, beacons,
             root_readings, None, None, sample_times, steady, parts,
             profiles)
    return tuple(
        TierSummary(
            name=tier.name,
            protocol=tier.protocol,
            beacon_period_s=tier.beacon_period_s,
            fan_out=tier.fan_out,
            nodes=part.nodes,
            mean_power_uw=part.power_sum_uw / part.nodes,
            beacons_sent=part.beacons_sent,
            beacons_heard=part.beacons_heard,
            power_loss_resets=part.resets,
            **{name: getattr(part, name) for name in ERROR_FIELDS},
        )
        for tier, part in zip(spec.tiers, parts)
    )
