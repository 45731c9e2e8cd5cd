"""Checkpointed bounded-memory execution of hierarchical fleets.

:class:`~repro.net.fleet.FleetRunner` holds one ``NodeResult`` per
node — fine at fleet sizes in the hundreds, fatal at the 10k–1M nodes
hierarchies are sized for.  :class:`StreamingRunner` never does: the
unit of work is one *tier-0 subtree* (a gateway and everything under
it), each subtree folds down to a few :class:`~repro.net.stats
.SyncError` aggregates per tier inside the worker, and subtrees are
dispatched in bounded *waves* whose results merge into the running
per-tier state in subtree-index order.  Peak memory is therefore a
function of the wave size, never of the fleet size.

**Determinism.**  Every node's draws come from its hierarchy *path*
(:func:`repro.net.hierarchy._stream`), and partial states fold
per subtree in index order, so the final summary is bit-identical
across worker counts, wave sizes and interruptions.

**Checkpointing.**  With a checkpoint directory configured, the
runner persists its partial merge after every completed wave to a
content-addressed state file (the file name hashes the run identity:
schema, spec token, seed, duration and the
:func:`~repro.store.code_fingerprint` of the simulating code).  A
later run with the same identity resumes from the recorded subtree
index and — because the fold sequence is the same one a cold run
performs — produces a byte-identical artifact.  Stale, corrupt or
other-code state files are ignored, never trusted.

When metrics collection is active (:mod:`repro.obs`), the checkpoint
additionally persists the *counter delta* this run accumulated past
the per-run preamble (root build, schedule precompute), so a resumed
``--metrics`` run merges the killed run's counters back in and its
deterministic sections come out byte-identical to a cold run's.
Checkpoint write/load bookkeeping itself is recorded as timings only
(cold and resumed runs necessarily differ there).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .. import obs
from ..parallel import pool_map
from ..store import code_fingerprint, read_json, write_json
from .compute import (
    ComputeResolver,
    ComputeSettings,
    ComputeSummary,
    compute_settings,
    record_compute_counters,
)
from .fleet import DEFAULT_DURATION_S, DEFAULT_SEED
from .hierarchy import (
    HierarchySpec,
    ROOT_PATH,
    _stream,
    binding_power_uw,
    build_member,
    compose_errors,
    hierarchy_token,
    hop_error_samples,
    parse_hierarchy,
    profile_table,
)
from .node import error_grid
from .radio import RadioEnergy, beacon_schedule, receive_beacons
from .stats import FleetSummary, SyncError, TierSummary

__all__ = [
    "CHECKPOINT_SCHEMA",
    "DEFAULT_WAVE_SUBTREES",
    "HierarchyResult",
    "StreamingConfig",
    "StreamingRunner",
    "run_streaming",
]

#: Schema tag of the on-disk checkpoint state file.
CHECKPOINT_SCHEMA = "repro-net-checkpoint/1"

#: Default wave size (tier-0 subtrees per wave) of streaming runs.
DEFAULT_WAVE_SUBTREES = 32

#: Names of the :class:`_TierState` fields holding error aggregates.
_ERROR_FIELDS = (
    "hop_sync",
    "steady_hop_sync",
    "sync",
    "steady_sync",
    "unsync",
    "steady_unsync",
)


@dataclass
class _TierState:
    """Running partial merge of one tier (the checkpointed unit).

    Scalars add; error aggregates recombine exactly through
    :meth:`SyncError.merged`.  All floats survive the JSON checkpoint
    round-trip bit-exactly (shortest-repr serialisation), which is
    what makes resumed runs byte-identical to cold ones.
    """

    nodes: int = 0
    power_sum_uw: float = 0.0
    radio_sum_uw: float = 0.0
    floor_sum_mhz: float = 0.0
    repairs: int = 0
    resets: int = 0
    beacons_sent: int = 0
    beacons_heard: int = 0
    hop_sync: SyncError = field(default_factory=SyncError)
    steady_hop_sync: SyncError = field(default_factory=SyncError)
    sync: SyncError = field(default_factory=SyncError)
    steady_sync: SyncError = field(default_factory=SyncError)
    unsync: SyncError = field(default_factory=SyncError)
    steady_unsync: SyncError = field(default_factory=SyncError)

    def fold(self, other: "_TierState") -> None:
        """Merge another partial state into this one, in place."""
        self.nodes += other.nodes
        self.power_sum_uw += other.power_sum_uw
        self.radio_sum_uw += other.radio_sum_uw
        self.floor_sum_mhz += other.floor_sum_mhz
        self.repairs += other.repairs
        self.resets += other.resets
        self.beacons_sent += other.beacons_sent
        self.beacons_heard += other.beacons_heard
        for name in _ERROR_FIELDS:
            merged = SyncError.merged(
                [getattr(self, name), getattr(other, name)]
            )
            setattr(self, name, merged)

    def add_node(
        self,
        hop: list[float],
        base_hop: list[float],
        eff: list[float],
        base_eff: list[float],
        steady_index: int,
    ) -> None:
        """Fold one member's signed error series into the state."""
        series = {
            "hop_sync": hop,
            "steady_hop_sync": hop[steady_index:],
            "sync": eff,
            "steady_sync": eff[steady_index:],
            "unsync": base_eff,
            "steady_unsync": base_eff[steady_index:],
        }
        for name in _ERROR_FIELDS:
            merged = SyncError.merged(
                [getattr(self, name), SyncError.from_samples(series[name])]
            )
            setattr(self, name, merged)

    @classmethod
    def from_mapping(cls, data: dict) -> "_TierState":
        """Rebuild a state from its checkpoint mapping."""
        errors = {
            name: SyncError(**data[name]) for name in _ERROR_FIELDS
        }
        return cls(
            nodes=int(data["nodes"]),
            power_sum_uw=float(data["power_sum_uw"]),
            radio_sum_uw=float(data["radio_sum_uw"]),
            floor_sum_mhz=float(data["floor_sum_mhz"]),
            repairs=int(data["repairs"]),
            resets=int(data["resets"]),
            beacons_sent=int(data["beacons_sent"]),
            beacons_heard=int(data["beacons_heard"]),
            **errors,
        )


@dataclass(frozen=True)
class StreamingConfig:
    """Everything one streaming run needs.

    Attributes:
        spec: the hierarchy to simulate.
        duration_s: simulated seconds.
        seed: fleet seed feeding every node's named streams.
        wave_size: tier-0 subtrees simulated per wave (``None`` runs
            the whole fleet as one wave — still memory-bounded, but
            checkpointed only at the end).
        checkpoint_dir: directory of the content-addressed state
            file; ``None`` disables checkpointing.
        compute: app-compute resolution settings: the source's
            profile universe is resolved once in the main process
            through them, and waves ship the resulting lookup table.
    """

    spec: HierarchySpec
    duration_s: float = DEFAULT_DURATION_S
    seed: int = DEFAULT_SEED
    wave_size: int | None = None
    checkpoint_dir: str | Path | None = None
    compute: ComputeSettings = ComputeSettings()

    def __post_init__(self) -> None:
        if self.duration_s <= 0.0:
            raise ValueError("duration must be positive")
        if self.wave_size is not None and self.wave_size < 1:
            raise ValueError("wave size must be >= 1")
        if not isinstance(self.compute, ComputeSettings):
            raise ValueError("compute must be 'exact' or a ComputeSettings")


@dataclass(frozen=True)
class HierarchyResult:
    """One streaming run's outcome.

    The deterministic portion (``summary`` and ``tiers``) is a pure
    function of (spec, seed, duration) — wall-clock figures, worker
    counts and resume bookkeeping live alongside it and never enter
    artifacts.

    Attributes:
        spec: the hierarchy that ran.
        token: round-trip token of the spec (its name when the spec
            has no token form).
        seed: fleet seed.
        duration_s: simulated seconds.
        wave_size: effective subtrees per wave.
        subtrees: total tier-0 subtrees of the spec.
        subtrees_done: subtrees folded into the state so far.
        resumed_subtrees: subtrees restored from a checkpoint instead
            of simulated by this run.
        waves: total waves a complete run needs.
        waves_run: waves this run executed.
        completed: whether the whole fleet is folded in.
        checkpoint: path of the state file ("" when disabled).
        summary: fleet-wide aggregate (partial if not completed).
        tiers: per-tier aggregates, backbone-adjacent first.
        elapsed_s: wall-clock seconds of this run, the profile
            resolve included.
        nodes_per_second: simulated nodes per wall-clock second of
            this run (resumed subtrees excluded).
        workers: worker processes used: the requested count, capped
            by the wave size and the subtree count.
        mode: always ``"streaming"``.
        peak_rss_mb: peak resident set of this process, MiB (0 where
            :mod:`resource` is unavailable).
        compute: compute-resolution account over the profile
            universe (``None`` only on results built by hand).
    """

    spec: HierarchySpec
    token: str
    seed: int
    duration_s: float
    wave_size: int
    subtrees: int
    subtrees_done: int
    resumed_subtrees: int
    waves: int
    waves_run: int
    completed: bool
    checkpoint: str
    summary: FleetSummary
    tiers: tuple[TierSummary, ...]
    elapsed_s: float
    nodes_per_second: float
    workers: int
    mode: str
    peak_rss_mb: float
    compute: ComputeSummary | None = None


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes there
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _walk(
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
    steady_index: int,
    parts: list[_TierState],
    profiles: dict[tuple, float],
) -> None:
    """Simulate one member and, depth-first, everything under it."""
    tier = spec.tiers[tier_index]
    binding, clock = build_member(spec, tier_index, path, seed, duration_s)
    receptions = receive_beacons(
        beacons, clock, spec.base.radio, _stream(seed, path, "radio")
    )
    hop, base_hop = hop_error_samples(
        tier.protocol, receptions, clock, sample_times, parent_readings
    )
    eff = compose_errors(hop, parent_eff)
    base_eff = compose_errors(base_hop, parent_base)

    energy = RadioEnergy()
    energy.rx_messages = len(receptions)
    last = tier_index == len(spec.tiers) - 1
    schedule: list = []
    if not last:
        child = spec.tiers[tier_index + 1]
        schedule = beacon_schedule(child.beacon_period_s, duration_s, clock)
        energy.tx_messages = len(schedule)
    radio_uw = energy.average_uw(spec.base.radio, duration_s)

    part = parts[tier_index]
    part.nodes += 1
    part.power_sum_uw += binding_power_uw(
        binding, spec.base, duration_s, profiles
    )
    part.power_sum_uw += radio_uw
    part.radio_sum_uw += radio_uw
    part.floor_sum_mhz += binding.floor_mhz
    part.repairs += binding.repairs
    part.resets += clock.resets_before(duration_s)
    part.beacons_heard += len(receptions)
    part.add_node(hop, base_hop, eff, base_eff, steady_index)

    if not last:
        parts[tier_index + 1].beacons_sent += len(schedule)
        readings = [clock.read(t) for t in sample_times]
        for child_index in range(spec.tiers[tier_index + 1].fan_out):
            _walk(
                spec,
                tier_index + 1,
                f"{path}.{child_index}",
                seed,
                duration_s,
                schedule,
                readings,
                eff,
                base_eff,
                sample_times,
                steady_index,
                parts,
                profiles,
            )


def _simulate_subtree(payload: tuple) -> list[_TierState]:
    """Fold one tier-0 subtree down to per-tier partial states.

    Top-level so worker processes can unpickle it; pure function of
    the payload, so inline and pooled execution are bit-identical.
    """
    (
        spec,
        seed,
        duration_s,
        index,
        beacons,
        sample_times,
        root_readings,
        steady_index,
        profiles,
    ) = payload
    parts = [_TierState() for _ in spec.tiers]
    _walk(
        spec,
        0,
        str(index),
        seed,
        duration_s,
        beacons,
        root_readings,
        None,
        None,
        sample_times,
        steady_index,
        parts,
        profiles,
    )
    return parts


class StreamingRunner:
    """Wave-by-wave executor of one hierarchical fleet."""

    def __init__(self, config: StreamingConfig) -> None:
        self.config = config

    def _identity(self, token: str) -> dict:
        """The run identity a checkpoint must match to be trusted."""
        return {
            "schema": CHECKPOINT_SCHEMA,
            "spec": token,
            "seed": self.config.seed,
            "duration_s": self.config.duration_s,
            "code": code_fingerprint(),
        }

    def _checkpoint_path(self, identity: dict) -> Path:
        """Content-addressed state-file path under the directory."""
        blob = json.dumps(identity, sort_keys=True)
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
        return Path(self.config.checkpoint_dir) / f"stream-{digest}.json"

    def _load(
        self, path: Path, identity: dict
    ) -> tuple[list[_TierState], int, dict | None] | None:
        """Restore a partial merge; ``None`` when absent or stale.

        The third element is the killed run's deterministic metrics
        delta (``None`` for checkpoints written without collection —
        the optional ``obs`` key keeps old state files loadable).
        """
        try:
            doc = read_json(path)
            if doc["identity"] != identity:
                return None
            tiers = doc["tiers"]
            if len(tiers) != len(self.config.spec.tiers):
                return None
            state = [_TierState.from_mapping(data) for data in tiers]
            done = int(doc["subtrees_done"])
            saved_obs = doc.get("obs")
            if saved_obs is not None and not isinstance(saved_obs, dict):
                return None
        except (ValueError, KeyError, TypeError):
            return None
        if not 0 <= done <= self.config.spec.subtrees:
            return None
        return state, done, saved_obs

    def _write(
        self,
        path: Path,
        identity: dict,
        done: int,
        state: list[_TierState],
        obs_delta: dict | None = None,
    ) -> None:
        """Atomically persist the partial merge."""
        doc = {
            "identity": identity,
            "subtrees_done": done,
            "tiers": [asdict(part) for part in state],
        }
        if obs_delta is not None:
            doc["obs"] = obs_delta
        write_json(path, doc)

    def run(
        self, workers: int = 1, max_waves: int | None = None
    ) -> HierarchyResult:
        """Execute (or resume) the fleet.

        Args:
            workers: worker processes per wave (1 = inline).
            max_waves: stop after this many waves even if subtrees
                remain — the knob CI's kill-and-resume check uses to
                interrupt a run at a deterministic point.
        """
        config = self.config
        spec = config.spec
        seed = config.seed
        duration_s = config.duration_s

        try:
            token = hierarchy_token(spec)
        except ValueError:
            if config.checkpoint_dir is not None:
                raise ValueError(
                    "checkpointing needs a token-serialisable "
                    "hierarchy (preset or tiers:/gen: bases)"
                ) from None
            token = spec.name

        root_binding, root_clock = build_member(
            spec, -1, ROOT_PATH, seed, duration_s
        )
        beacons: list = []
        if spec.tiers:
            beacons = beacon_schedule(
                spec.tiers[0].beacon_period_s, duration_s, root_clock
            )
        sample_times, steady_index = error_grid(duration_s)
        root_readings = [root_clock.read(t) for t in sample_times]

        subtrees = spec.subtrees
        wave_size = config.wave_size or max(subtrees, 1)
        waves = -(-subtrees // wave_size) if subtrees else 0
        # No wave runs more subtrees in parallel than it holds.
        workers_used = max(1, min(workers, wave_size, subtrees))

        # Profiles are resolved once, in the main process, from the
        # source's closed binding universe — workers only ever look
        # up.  As in FleetRunner.run, the resolve runs inside the timed
        # window, so reported throughput includes compute.
        run_span = obs.span("net.stream.run").start()
        with obs.span("net.compute.resolve"):
            profiles, profile_summary = profile_table(
                spec.base, duration_s, ComputeResolver(config.compute)
            )

        state = [_TierState() for _ in spec.tiers]
        done = 0
        resumed = 0
        checkpoint = None
        registry = obs.active()
        # Counter baseline for the checkpointed delta: the preamble
        # above (root build, schedule precompute, profile resolve)
        # re-runs identically in every run — cold or resumed — so only
        # counters recorded past this point belong to the persisted
        # delta.
        base = registry.deterministic() if registry is not None else None
        if config.checkpoint_dir is not None:
            identity = self._identity(token)
            checkpoint = self._checkpoint_path(identity)
            with obs.span("net.stream.checkpoint.load"):
                loaded = self._load(checkpoint, identity)
            if loaded is not None:
                state, done, saved_obs = loaded
                resumed = done
                if registry is not None and saved_obs is not None:
                    registry.merge(saved_obs)

        executed = 0
        waves_run = 0
        while done < subtrees:
            if max_waves is not None and waves_run >= max_waves:
                break
            count = min(wave_size, subtrees - done)
            obs.add("net.stream.waves")
            obs.add("net.stream.subtrees", count)
            obs.add("net.stream.nodes", count * spec.subtree_nodes)
            obs.gauge("net.stream.wave_size", wave_size)
            payloads = [
                (
                    spec,
                    seed,
                    duration_s,
                    index,
                    beacons,
                    sample_times,
                    root_readings,
                    steady_index,
                    profiles,
                )
                for index in range(done, done + count)
            ]
            with obs.span("net.stream.wave"):
                for parts in pool_map(
                    _simulate_subtree, payloads, min(workers_used, count)
                ):
                    for tier_state, part in zip(state, parts):
                        tier_state.fold(part)
            done += count
            executed += count
            waves_run += 1
            if checkpoint is not None:
                delta = None
                if registry is not None:
                    delta = obs.counter_delta(base, registry.deterministic())
                with obs.span("net.stream.checkpoint.write"):
                    self._write(checkpoint, identity, done, state, delta)
        elapsed = run_span.stop()
        # Emitted once, after the final checkpoint write, so the
        # persisted delta never contains it: cold, killed and resumed
        # runs all end up with exactly one emission.
        record_compute_counters(profile_summary)

        root_energy = RadioEnergy()
        root_energy.tx_messages = len(beacons)
        root_radio_uw = root_energy.average_uw(spec.base.radio, duration_s)
        root_power_uw = (
            binding_power_uw(root_binding, spec.base, duration_s, profiles)
            + root_radio_uw
        )

        tiers = []
        for index, (tier, tier_state) in enumerate(zip(spec.tiers, state)):
            nodes = tier_state.nodes
            sent = tier_state.beacons_sent
            if index == 0:
                sent += len(beacons)
            tiers.append(
                TierSummary(
                    name=tier.name,
                    protocol=tier.protocol,
                    beacon_period_s=tier.beacon_period_s,
                    fan_out=tier.fan_out,
                    nodes=nodes,
                    mean_power_uw=(
                        tier_state.power_sum_uw / nodes if nodes else 0.0
                    ),
                    mean_radio_uw=(
                        tier_state.radio_sum_uw / nodes if nodes else 0.0
                    ),
                    mean_floor_mhz=(
                        tier_state.floor_sum_mhz / nodes if nodes else 0.0
                    ),
                    repairs=tier_state.repairs,
                    beacons_sent=sent,
                    beacons_heard=tier_state.beacons_heard,
                    power_loss_resets=tier_state.resets,
                    hop_sync=tier_state.hop_sync,
                    steady_hop_sync=tier_state.steady_hop_sync,
                    sync=tier_state.sync,
                    steady_sync=tier_state.steady_sync,
                    unsync=tier_state.unsync,
                    steady_unsync=tier_state.steady_unsync,
                )
            )

        n_nodes = 1 + sum(part.nodes for part in state)
        total_power_uw = root_power_uw + sum(
            part.power_sum_uw for part in state
        )
        total_radio_uw = root_radio_uw + sum(
            part.radio_sum_uw for part in state
        )
        summary = FleetSummary(
            scenario=token,
            protocol="/".join(t.protocol for t in spec.tiers) or "none",
            n_nodes=n_nodes,
            duration_s=duration_s,
            total_power_uw=total_power_uw,
            mean_power_uw=total_power_uw / n_nodes,
            mean_radio_uw=total_radio_uw / n_nodes,
            sync=SyncError.merged([part.sync for part in state]),
            steady_sync=SyncError.merged(
                [part.steady_sync for part in state]
            ),
            unsync=SyncError.merged([part.unsync for part in state]),
            steady_unsync=SyncError.merged(
                [part.steady_unsync for part in state]
            ),
            beacons_sent=len(beacons)
            + sum(part.beacons_sent for part in state),
            beacons_heard=sum(part.beacons_heard for part in state),
            power_loss_resets=sum(part.resets for part in state),
            source=spec.base.apps.kind,
        )

        executed_nodes = executed * spec.subtree_nodes
        return HierarchyResult(
            spec=spec,
            token=token,
            seed=seed,
            duration_s=duration_s,
            wave_size=wave_size,
            subtrees=subtrees,
            subtrees_done=done,
            resumed_subtrees=resumed,
            waves=waves,
            waves_run=waves_run,
            completed=done >= subtrees,
            checkpoint=str(checkpoint) if checkpoint is not None else "",
            summary=summary,
            tiers=tuple(tiers),
            elapsed_s=elapsed,
            nodes_per_second=(
                executed_nodes / elapsed if elapsed > 0.0 else 0.0
            ),
            workers=workers_used,
            mode="streaming",
            peak_rss_mb=_peak_rss_mb(),
            compute=profile_summary,
        )


def run_streaming(
    tiers: str | HierarchySpec,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    wave_size: int | None = None,
    checkpoint_dir: str | Path | None = None,
    max_waves: int | None = None,
    compute: str | ComputeSettings = "exact",
    compute_cache: str | None = None,
) -> HierarchyResult:
    """One-call streaming run of a hierarchy token, preset or spec.

    ``compute`` / ``compute_cache`` mirror
    :func:`repro.net.fleet.run_fleet`, minus its inline path: the app
    profiles always resolve through the shared compute cache.

    Raises:
        ValueError: ``compute`` is neither ``"exact"`` nor a
            :class:`ComputeSettings`.
    """
    if isinstance(tiers, HierarchySpec):
        spec = tiers
    else:
        spec = parse_hierarchy(str(tiers))
    config = StreamingConfig(
        spec=spec,
        duration_s=duration_s,
        seed=seed,
        wave_size=wave_size,
        checkpoint_dir=checkpoint_dir,
        compute=compute_settings(compute, compute_cache),
    )
    return StreamingRunner(config).run(workers=workers, max_waves=max_waves)
