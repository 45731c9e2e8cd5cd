"""One WBSN network node: clock + radio + a mapped application.

A :class:`NetworkNode` wraps one :func:`repro.sysc.engine.simulate`
run — the paper's multi-core sensor node with its intra-node
synchronizer — and surrounds it with the network-level concerns the
paper stops short of: a drifting :class:`repro.net.clock.LocalClock`,
a beacon :mod:`radio <repro.net.radio>` whose message energy is folded
into the node's :class:`~repro.power.energy.PowerReport`, and a
pluggable :mod:`time-sync <repro.net.timesync>` protocol estimating
the reference node's clock.

The application itself comes from the scenario's pluggable
:mod:`app source <repro.net.appsource>`: fixed Table I benchmarks,
generated-suite draws placed by a mapping policy, or a weighted mix.
The node simulates whatever plan its binding carries, so
heterogeneous fleets pay each node's *own* clock floor and power.

Nodes are pure functions of ``(scenario, fleet seed, node id)``: every
random draw comes from named per-node streams, so a node simulated in
a worker process is bit-identical to the same node simulated inline
(the contract :mod:`repro.net.fleet` builds on).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from .. import obs
from ..power.energy import PowerReport
from ..sysc.engine import uniform_signature
from .appsource import APPS, AppBinding
from .compute import ComputeRequest, build_request
from .clock import LocalClock
from .hierarchy import _stream, hop_error_samples
from .radio import Beacon, RadioEnergy, receive_beacons
from .scenarios import Scenario
from .stats import SYNC_FIELDS, Moments, SyncError

__all__ = [
    "APPS",
    "ERROR_SAMPLE_HZ",
    "REFERENCE_NODE_ID",
    "NetworkNode",
    "NodeResult",
    "build_node",
    "error_grid",
]

#: Node id of the sync reference (the continuously powered hub).
REFERENCE_NODE_ID = 0

#: Error-sampling rate of the residual sync error (Hz of global time).
ERROR_SAMPLE_HZ = 5.0


def error_grid(duration_s: float) -> tuple[list[float], int]:
    """The error-sample grid of a run: ``(sample_times, steady_index)``.

    Sample times are the global instants at :data:`ERROR_SAMPLE_HZ`;
    the steady index is the first sample of the steady half (at or
    after ``duration_s / 2``).
    """
    count = int(duration_s * ERROR_SAMPLE_HZ)
    times = [(i + 1) / ERROR_SAMPLE_HZ for i in range(count)]
    return times, bisect_left(times, duration_s / 2.0)


@dataclass(frozen=True)
class NodeResult:
    """Everything one node's simulation produces.

    Attributes:
        node_id: fleet-wide id (0 is the reference).
        app_name: application the node ran.
        protocol: sync protocol name ("reference" for node 0).
        drift_ppm: the node's sampled oscillator drift.
        bpm: the node's sampled heart rate.
        resets: power-loss reboots suffered during the run.
        beacons_heard: sync beacons actually received.
        radio_uw: average radio power, µW.
        power: node power decomposition (includes a ``radio``
            category on top of the paper's components).
        sync: residual sync error over the whole run (empty for the
            reference node, which *defines* reference time).
        steady_sync: residual sync error over the second half.
        unsync: the free-running counterfactual — the error the same
            node shows when it ignores every beacon.  Computed in the
            same replay (the baseline is just the raw local clock),
            so one fleet run yields both sides of the comparison.
        steady_unsync: free-running error over the second half.
        token: regeneration token of a generated app ("" for
            benchmarks).
        family: topology family of a generated app ("" for
            benchmarks).
        policy: mapping policy that placed the app ("" = paper
            default).
        floor_mhz: the placement's own clock requirement (0 when the
            paper default was derived inside the simulator).
        repairs: replicas trimmed to fit the platform.
        compute_key: content-addressed key of the node's app-compute
            work ("" when simulated inline).
        compute_tier: ``"exact"`` when the compute resolver served
            it; "" when simulated inline.
    """

    node_id: int
    app_name: str
    protocol: str
    drift_ppm: float
    bpm: float
    resets: int
    beacons_heard: int
    radio_uw: float
    power: PowerReport
    sync: SyncError
    steady_sync: SyncError
    unsync: SyncError
    steady_unsync: SyncError
    token: str = ""
    family: str = ""
    policy: str = ""
    floor_mhz: float = 0.0
    repairs: int = 0
    compute_key: str = ""
    compute_tier: str = ""


class NetworkNode:
    """One node of the fleet, ready to simulate.

    Build with :func:`build_node` so every parameter is drawn from the
    node's own seeded streams.
    """

    def __init__(
        self,
        node_id: int,
        scenario: Scenario,
        binding: AppBinding,
        bpm: float,
        clock: LocalClock,
        rng_radio: random.Random,
        duration_s: float,
    ) -> None:
        self.node_id = node_id
        self.scenario = scenario
        self.binding = binding
        self.bpm = bpm
        self.clock = clock
        self.duration_s = duration_s
        self._rng_radio = rng_radio
        self.is_reference = node_id == REFERENCE_NODE_ID

    @property
    def app_name(self) -> str:
        """Name of the bound application."""
        return self.binding.name

    def compute_request(self) -> ComputeRequest:
        """Content-address the node's app-compute work."""
        signature = uniform_signature(
            self.duration_s,
            self.binding.app.fs,
            self.bpm,
            self.scenario.abnormal_ratio,
        )
        return build_request(self.binding, self.duration_s, signature)

    @staticmethod
    def _sync_errors(
        nodes: list["NetworkNode"],
        computes: list[tuple[PowerReport, str]],
        beacons: list[Beacon],
        sample_times: list[float],
        ref_readings: list[float],
    ) -> list[NodeResult]:
        """Replay a shard's followers as the rows of one
        :func:`hop_error_samples` call, then fold each node's errors and
        its ``computes`` entry: compute report (the radio's power joins
        it) and compute key ("" = simulated inline)."""
        scenario, duration_s = nodes[0].scenario, nodes[0].duration_s
        followers = [node for node in nodes if not node.is_reference]
        with obs.span("net.fleet.replay"):
            heard = [
                receive_beacons(
                    beacons, node.clock, scenario.radio, node._rng_radio
                )
                for node in followers
            ]
            replay = hop_error_samples(
                scenario.protocol,
                beacons,
                heard,
                [node.clock for node in followers],
                sample_times,
                ref_readings,
            )
        with obs.span("net.fleet.fold"):
            _, steady = error_grid(duration_s)
            series = [
                Moments.rows(magnitude[:, cut:])
                for magnitude in map(abs, replay)
                for cut in (0, steady)
            ]
            folded = zip(heard, zip(*series))
            results = []
            for node, (power, key) in zip(nodes, computes):
                energy, moments = RadioEnergy(), (Moments(),) * 4
                protocol = scenario.protocol
                if node.is_reference:
                    energy.tx_messages = len(beacons)
                    protocol = "reference"
                else:
                    received, moments = next(folded)
                    energy.rx_messages = len(received)
                radio_uw = energy.average_uw(scenario.radio, duration_s)
                power.categories["radio"] = radio_uw
                errors = [part.error() for part in moments]
                results.append(
                    NodeResult(
                        node_id=node.node_id,
                        app_name=node.app_name,
                        protocol=protocol,
                        drift_ppm=node.clock.spec.drift_ppm,
                        bpm=node.bpm,
                        resets=node.clock.resets_before(duration_s),
                        beacons_heard=energy.rx_messages,
                        radio_uw=radio_uw,
                        power=power,
                        **dict(zip(SYNC_FIELDS, errors)),
                        token=node.binding.token,
                        family=node.binding.family,
                        policy=node.binding.policy,
                        floor_mhz=node.binding.floor_mhz,
                        repairs=node.binding.repairs,
                        compute_key=key,
                        compute_tier="exact" if key else "",
                    )
                )
            return results


def build_node(
    scenario: Scenario, node_id: int, fleet_seed: int, duration_s: float
) -> NetworkNode:
    """Construct one node from its seeded streams.

    The node's application comes from the scenario's app source
    (benchmark mix, generated suite or weighted union); everything
    else — heart rate, drift, offset, reset schedule — is drawn from
    the same named streams as before, so benchmark-backed scenarios
    reproduce the historical fleets bit-for-bit.

    The reference node (id 0) is the hub: it is continuously powered
    (no power-loss resets) but its oscillator drifts like any other —
    the fleet synchronizes to it, not to true time.
    """
    rng_app = _stream(fleet_seed, node_id, "app")
    binding = scenario.apps.bind(rng_app, scenario.abnormal_ratio)
    bpm = rng_app.uniform(*scenario.bpm_range)
    clock = scenario.draw_clock(
        rng_app,
        _stream(fleet_seed, node_id, "clock"),
        duration_s,
        resets=node_id != REFERENCE_NODE_ID,
    )
    return NetworkNode(
        node_id=node_id,
        scenario=scenario,
        binding=binding,
        bpm=bpm,
        clock=clock,
        rng_radio=_stream(fleet_seed, node_id, "radio"),
        duration_s=duration_s,
    )
