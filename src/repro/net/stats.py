"""Summary dataclasses shared by the fleet runner and `repro.eval`.

These are defined here (dependency-free) and rendered by
:mod:`repro.eval.netexp`, so the network report and the Table-I-style
reports format results through one path without `repro.net` ever
importing the evaluation layer.

:class:`SyncError` supports *exact* merging: per-node statistics carry
their sample counts, and :meth:`SyncError.merged` recombines them with
count-weighted sums in caller order.  The fleet runner always merges
in node-id order, which is what makes serial and sharded-parallel
execution bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..power.energy import sum_left


@dataclass(frozen=True)
class SyncError:
    """Residual inter-node clock error over a set of samples.

    Attributes:
        count: number of (node, instant) error samples aggregated.
        mean_abs_s: mean absolute error, seconds.
        rms_s: root-mean-square error, seconds.
        max_abs_s: worst absolute error, seconds.
    """

    count: int = 0
    mean_abs_s: float = 0.0
    rms_s: float = 0.0
    max_abs_s: float = 0.0

    @classmethod
    def from_samples(cls, errors_s: list[float]) -> "SyncError":
        """Summarise raw signed error samples (seconds)."""
        if not errors_s:
            return cls()
        n = len(errors_s)
        sum_abs = sum_sq = 0.0
        for e in errors_s:  # left to right, like sum_left
            sum_abs += abs(e)
            sum_sq += e * e
        return cls(
            count=n,
            mean_abs_s=sum_abs / n,
            rms_s=math.sqrt(sum_sq / n),
            max_abs_s=max(abs(e) for e in errors_s),
        )

    @classmethod
    def merged(cls, parts: list["SyncError"]) -> "SyncError":
        """Exactly recombine per-node summaries (count-weighted)."""
        total = sum(part.count for part in parts)
        if total == 0:
            return cls()
        mean = sum_left(p.count * p.mean_abs_s for p in parts) / total
        mean_sq = sum_left(p.count * p.rms_s**2 for p in parts) / total
        return cls(
            count=total,
            mean_abs_s=mean,
            rms_s=math.sqrt(mean_sq),
            max_abs_s=max(part.max_abs_s for part in parts),
        )


def improvement_ratio(unsync_s: float, sync_s: float) -> float:
    """How many times smaller the synced error is (unsync / sync).

    A perfectly synced fleet (zero residual error) yields ``inf`` when
    the free-running error is positive and ``1.0`` when both are zero.
    The network report and the fleet sweep runner both quote this
    figure, so its edge-case semantics live here, once.
    """
    if sync_s > 0.0:
        return unsync_s / sync_s
    return float("inf") if unsync_s > 0.0 else 1.0


@dataclass(frozen=True)
class GroupStats:
    """Aggregate over one node group of a heterogeneous fleet.

    Fleets whose nodes draw from generated suites are reported per
    topology *family* and per mapping *policy* on top of the
    fleet-wide summary; each group row is one of these.

    Attributes:
        name: group key (topology family, benchmark name or mapping
            policy).
        nodes: nodes in the group (reference included).
        mean_power_uw: mean average node power of the group, µW.
        mean_floor_mhz: mean per-app clock floor of the group's
            placements (0 for paper-default benchmark nodes).
        repairs: total replicas trimmed across the group.
        steady_sync: merged steady-state sync error of the group's
            follower nodes.
    """

    name: str
    nodes: int
    mean_power_uw: float
    mean_floor_mhz: float
    repairs: int
    steady_sync: SyncError = field(default_factory=SyncError)


@dataclass(frozen=True)
class TierSummary:
    """Aggregate over one tier of a hierarchical fleet.

    Hierarchical runs report two error views per tier: the *hop*
    error (each member against its own parent — what the tier's
    protocol actually controls) and the *effective* error (composed
    across every hop down from the backbone — what an application
    distributed over the fleet observes).  The free-running
    counterfactuals are composed the same way.

    Attributes:
        name: tier label (``backbone``, ``ward`` ...).
        protocol: sync protocol the tier's members run.
        beacon_period_s: period of the beacons members receive.
        fan_out: members per parent node.
        nodes: total members of the tier.
        mean_power_uw: mean average member power (incl. radio), µW.
        mean_radio_uw: mean radio power per member, µW.
        mean_floor_mhz: mean per-app clock floor of the members'
            placements (0 for paper-default benchmark nodes).
        repairs: total replicas trimmed across the tier.
        beacons_sent: beacons broadcast *to* this tier by its parent
            nodes (each broadcast counted once, not per listener).
        beacons_heard: total receptions across the tier.
        power_loss_resets: total power-loss reboots (leaf tiers only;
            gateways are powered infrastructure).
        hop_sync: single-hop error against the members' own parents.
        steady_hop_sync: single-hop error over the second half.
        sync: effective error against the backbone (all hops
            composed).
        steady_sync: effective error over the second half.
        unsync: free-running effective counterfactual.
        steady_unsync: free-running effective error, second half.
    """

    name: str
    protocol: str
    beacon_period_s: float
    fan_out: int
    nodes: int
    mean_power_uw: float = 0.0
    mean_radio_uw: float = 0.0
    mean_floor_mhz: float = 0.0
    repairs: int = 0
    beacons_sent: int = 0
    beacons_heard: int = 0
    power_loss_resets: int = 0
    hop_sync: SyncError = field(default_factory=SyncError)
    steady_hop_sync: SyncError = field(default_factory=SyncError)
    sync: SyncError = field(default_factory=SyncError)
    steady_sync: SyncError = field(default_factory=SyncError)
    unsync: SyncError = field(default_factory=SyncError)
    steady_unsync: SyncError = field(default_factory=SyncError)


@dataclass(frozen=True)
class FleetSummary:
    """Deterministic aggregate of one fleet run.

    Everything here is a pure function of (scenario, seed, node
    count, duration): wall-clock timing lives on
    :class:`repro.net.fleet.FleetResult` instead, so summaries can be
    compared bit-for-bit across serial and parallel execution.

    Attributes:
        scenario: scenario name.
        protocol: sync protocol name the fleet ran.
        n_nodes: fleet size (including the reference node).
        duration_s: simulated seconds.
        total_power_uw: summed average node power (incl. radio), µW.
        mean_power_uw: mean average node power, µW.
        mean_radio_uw: mean radio power per node, µW.
        sync: residual sync error over the whole run (non-reference
            nodes only).
        steady_sync: residual sync error over the second half of the
            run — the steady-state figure scenarios are judged on.
        unsync: free-running counterfactual error (same fleet, every
            beacon ignored), computed in the same pass.
        steady_unsync: free-running error over the second half.
        beacons_sent: beacons broadcast by the reference node.
        beacons_heard: total receptions across the fleet.
        power_loss_resets: total power-loss reboots across the fleet.
        source: app-source kind of the scenario (``benchmark``,
            ``generated-suite`` or ``mixed``).
        families: per-family group aggregates, name order (benchmark
            nodes group under their app name).
        policies: per-mapping-policy group aggregates, name order
            (paper-default nodes group under ``paper``).
    """

    scenario: str
    protocol: str
    n_nodes: int
    duration_s: float
    total_power_uw: float = 0.0
    mean_power_uw: float = 0.0
    mean_radio_uw: float = 0.0
    sync: SyncError = field(default_factory=SyncError)
    steady_sync: SyncError = field(default_factory=SyncError)
    unsync: SyncError = field(default_factory=SyncError)
    steady_unsync: SyncError = field(default_factory=SyncError)
    beacons_sent: int = 0
    beacons_heard: int = 0
    power_loss_resets: int = 0
    source: str = "benchmark"
    families: tuple[GroupStats, ...] = ()
    policies: tuple[GroupStats, ...] = ()
