"""The per-member streaming walk the array pass replaced.

Every member is built on its own (:func:`repro.net.hierarchy
.build_member`'s ``random`` streams keyed by its path), hears its
parent's beacons through :func:`repro.net.radio.receive_beacons`, is
replayed by the event loop (:func:`reference_sync.replay_events`) and
folds into per-tier :class:`~repro.net.stats.SyncError` aggregates
through :meth:`SyncError.merged`, depth-first.  Its draws differ from
the array pass's (other generators, same distributions), so it is a
*statistical* oracle for :mod:`repro.net.streaming`, not a bitwise
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.compute import ComputeResolver, ComputeSettings
from repro.net.hierarchy import (
    ROOT_PATH,
    HierarchySpec,
    _stream,
    bindings_power_uw,
    build_member,
    profile_table,
)
from repro.net.node import error_grid
from repro.net.radio import RadioEnergy, beacon_schedule, receive_beacons
from repro.net.stats import SyncError, TierSummary

from .reference_sync import replay_events

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
        beacons, clock, spec.base.radio, _stream(seed, path, "radio")
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
        [binding], spec.base, duration_s, profiles
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
    profiles, _ = profile_table(
        spec.base, duration_s, ComputeResolver(ComputeSettings())
    )
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
