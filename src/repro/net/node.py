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
from ..apps.phases import AppSpec
from ..power.energy import PowerReport
from ..sysc.engine import BeatEvent, cached_uniform_schedule, simulate
from .appsource import APPS, AppBinding
from .compute import ComputeRequest, ResolvedCompute, build_request
from .clock import LocalClock
from .hierarchy import hop_error_samples
from .radio import Beacon, RadioEnergy, receive_beacons
from .scenarios import Scenario
from .stats import SyncError

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


def _stream(fleet_seed: int, node_id: int, stream: str) -> random.Random:
    """A named, order-independent per-node random stream.

    String seeding hashes through SHA-512 inside :class:`random.Random`,
    so streams are stable across processes and Python invocations
    (never ``hash()``, which is salted per process).
    """
    return random.Random(f"{fleet_seed}:{node_id}:{stream}")


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

    @property
    def app(self) -> AppSpec:
        """The bound (possibly repaired) application spec."""
        return self.binding.app

    def schedule(self) -> tuple[BeatEvent, ...]:
        """The node's beat schedule (memoised across same-shape nodes)."""
        return cached_uniform_schedule(
            self.duration_s,
            self.app.fs,
            bpm=self.bpm,
            abnormal_ratio=self.scenario.abnormal_ratio,
        )

    def compute_request(self) -> ComputeRequest:
        """Content-address the node's app-compute work."""
        return build_request(
            self.binding, self.binding.mode, self.duration_s, self.schedule()
        )

    def simulate(
        self,
        beacons: list[Beacon],
        sample_times: list[float],
        ref_readings: list[float],
        compute: ResolvedCompute | None = None,
    ) -> NodeResult:
        """Run the node over one window.

        Args:
            beacons: the reference node's broadcast schedule.
            sample_times: global times at which the residual sync
                error is sampled — the :func:`error_grid` of the
                node's duration, whose steady index splits them.
            ref_readings: the reference clock's exact reading at each
                sample time (``len(sample_times)`` values).
            compute: pre-resolved app-compute entry from
                :class:`repro.net.compute.ComputeResolver` (None =
                simulate inline, the legacy path).  The radio, clock
                and sync work below is always exact and per-node.
        """
        if compute is None:
            result = simulate(
                self.app,
                self.binding.mode,
                self.schedule(),
                duration_s=self.duration_s,
                num_cores=self.binding.num_cores,
                mapping=self.binding.plan,
            )
            power = result.power
            compute_key = compute_tier = ""
        else:
            power = compute.report()
            compute_key = compute.key
            compute_tier = compute.tier

        energy = RadioEnergy()
        errors: list[float] = []
        steady: list[float] = []
        base_errors: list[float] = []
        base_steady: list[float] = []
        if self.is_reference:
            energy.tx_messages = len(beacons)
            heard = 0
        else:
            receptions = receive_beacons(
                beacons, self.clock, self.scenario.radio, self._rng_radio
            )
            energy.rx_messages = heard = len(receptions)
            errors, steady, base_errors, base_steady = self._sync_errors(
                receptions, sample_times, ref_readings
            )

        radio_uw = energy.average_uw(self.scenario.radio, self.duration_s)
        obs.add("net.node.simulations")
        if heard:
            obs.add("net.node.beacons_heard", heard)
        power.categories["radio"] = radio_uw
        return NodeResult(
            node_id=self.node_id,
            app_name=self.app_name,
            protocol=(
                "reference" if self.is_reference else self.scenario.protocol
            ),
            drift_ppm=self.clock.spec.drift_ppm,
            bpm=self.bpm,
            resets=self.clock.resets_before(self.duration_s),
            beacons_heard=heard,
            radio_uw=radio_uw,
            power=power,
            sync=SyncError.from_samples(errors),
            steady_sync=SyncError.from_samples(steady),
            unsync=SyncError.from_samples(base_errors),
            steady_unsync=SyncError.from_samples(base_steady),
            token=self.binding.token,
            family=self.binding.family,
            policy=self.binding.policy,
            floor_mhz=self.binding.floor_mhz,
            repairs=self.binding.repairs,
            compute_key=compute_key,
            compute_tier=compute_tier,
        )

    def _sync_errors(
        self, receptions, sample_times: list[float], ref_readings: list[float]
    ) -> tuple[list[float], list[float], list[float], list[float]]:
        """Replay receptions and error samples in global-time order.

        Returns the active protocol's error samples and, from the same
        replay, the free-running baseline (raw local clock vs.
        reference) — the counterfactual every report compares against
        — each followed by its steady half.
        """
        errors, base_errors = hop_error_samples(
            self.scenario.protocol,
            receptions,
            self.clock,
            sample_times,
            ref_readings,
        )
        _, steady = error_grid(self.duration_s)
        return errors, errors[steady:], base_errors, base_errors[steady:]


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
