"""Checkpointed bounded-memory execution of hierarchical fleets.

:class:`~repro.net.fleet.FleetRunner` holds one ``NodeResult`` per
node — fine at fleet sizes in the hundreds, fatal at the 10k–1M nodes
hierarchies are sized for.  :class:`StreamingRunner` never does: the
unit of work is one *tier-0 subtree* (a gateway and everything under
it), which folds into per-tier error *moments* (count, Σ|e|, Σe²,
max|e|).  Subtrees run in *waves*, each worker taking a contiguous
share of a wave as passes of at most :data:`PASS_CELLS`
member-samples: one array pass per tier, each subtree a block of rows
(:func:`_simulate_pass`), members drawn with one
``AppSource.bind_many`` per block.  States fold into the running
per-tier state in subtree-index order, and peak memory depends on
neither the wave nor the fleet size.

**Determinism.**  Draws are keyed by (seed, subtree, tier), sums in a
block run in a fixed order (``cumsum``, not pairwise ``sum``) and
states fold in subtree order, so the summary is bit-identical across
worker counts, wave and pass sizes and interruptions.

**Checkpointing.**  With a checkpoint directory configured, the
runner persists its partial merge after every completed wave to a
content-addressed state file (the file name hashes the run identity:
schema, spec token, seed, duration and the
:func:`~repro.store.code_fingerprint` of the simulating code).  A
later run with the same identity resumes from the recorded subtree
index and — because the fold sequence is the same one a cold run
performs — produces a byte-identical artifact.  Stale, corrupt,
other-code or inconsistent state files are ignored, never trusted.

When metrics collection is active (:mod:`repro.obs`), the checkpoint
additionally persists the *counter delta* this run accumulated past
the per-run preamble (root build, schedule precompute), so a resumed
``--metrics`` run merges the killed run's counters back in and its
deterministic sections come out byte-identical to a cold run's.
Checkpoint write/load bookkeeping itself is recorded as timings only
(cold and resumed runs necessarily differ there).
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .. import obs
from ..parallel import even_shard_size, pool_map, shard, worker_pool
from ..store import code_fingerprint, content_key, read_json, write_json
from .clock import read_clocks
from .compute import ComputeSummary, record_compute_counters
from .fleet import DEFAULT_DURATION_S, DEFAULT_SEED
from .hierarchy import (
    HierarchySpec,
    ROOT_PATH,
    _stream,
    bindings_power_uw,
    build_member,
    draw_members,
    hierarchy_token,
    parse_hierarchy,
    profile_table,
)
from .node import error_grid
from .radio import RadioEnergy, beacon_schedule
from .stats import SYNC_FIELDS, FleetSummary, Moments, SyncError, TierSummary
from .timesync import sync_replay

__all__ = [
    "CHECKPOINT_SCHEMA",
    "DEFAULT_WAVE_SUBTREES",
    "HierarchyResult",
    "StreamingConfig",
    "StreamingRunner",
    "run_streaming",
]

#: Schema tag of the on-disk checkpoint state file.
CHECKPOINT_SCHEMA = "repro-net-checkpoint/2"

#: Default wave size (tier-0 subtrees per wave) of streaming runs.
DEFAULT_WAVE_SUBTREES = 32

#: Member-samples (members x error samples) one array pass holds at
#: most: ``run`` cuts each worker's share of a wave into passes of
#: whole subtrees under it (a bigger subtree gets a pass of its own),
#: so memory stays bounded whatever the wave size.
PASS_CELLS = 1 << 15


@dataclass
class _TierState:
    """Running partial merge of one tier (the checkpointed unit).

    Scalars add and error moments fold.  All floats survive the JSON
    checkpoint round-trip bit-exactly (shortest-repr serialisation),
    which is what makes resumed runs byte-identical to cold ones.
    """

    nodes: int = 0
    power_sum_uw: float = 0.0
    radio_sum_uw: float = 0.0
    floor_sum_mhz: float = 0.0
    repairs: int = 0
    resets: int = 0
    beacons_sent: int = 0
    beacons_heard: int = 0
    hop_sync: Moments = field(default_factory=Moments)
    steady_hop_sync: Moments = field(default_factory=Moments)
    sync: Moments = field(default_factory=Moments)
    steady_sync: Moments = field(default_factory=Moments)
    unsync: Moments = field(default_factory=Moments)
    steady_unsync: Moments = field(default_factory=Moments)

    def fold(self, other: "_TierState") -> None:
        """Merge another partial state into this one, in place."""
        for name, value in vars(other).items():
            mine = getattr(self, name)
            if isinstance(mine, Moments):
                mine.fold(value)
            else:
                setattr(self, name, mine + value)

    def consistent(self, nodes: int, samples: int, steady: int) -> bool:
        """Whether this can be the fold of ``nodes`` members sampled at
        ``samples`` instants (``steady`` of them before the steady half):
        node and sample counts match, every value finite and >= 0."""
        values = []
        for name, value in vars(self).items():
            if isinstance(value, Moments):
                width = samples - steady if "steady" in name else samples
                if value.count != nodes * width:
                    return False
                values.extend(vars(value).values())
            else:
                values.append(value)
        finite = all(math.isfinite(v) and v >= 0 for v in values)
        return finite and self.nodes == nodes

    def errors(self) -> dict[str, SyncError]:
        """The reported error statistics, by field name."""
        return {
            name: value.error()
            for name, value in vars(self).items()
            if isinstance(value, Moments)
        }

    @classmethod
    def from_mapping(cls, data: dict) -> "_TierState":
        """Rebuild a state from its checkpoint mapping, each value cast
        to its field's type (ValueError/KeyError/TypeError if bad)."""

        def cast(default, value):
            if isinstance(default, Moments):
                fields = vars(default).items()
                return Moments(**{k: cast(v, value[k]) for k, v in fields})
            return type(default)(value)

        fields = vars(cls()).items()
        return cls(**{k: cast(v, data[k]) for k, v in fields})


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
        compute_cache: on-disk compute-cache root (None = the
            :data:`~repro.net.compute.COMPUTE_CACHE_ENV` root, if
            set): the source's profile universe is resolved once in
            the main process through it, and waves ship the resulting
            lookup table.
    """

    spec: HierarchySpec
    duration_s: float = DEFAULT_DURATION_S
    seed: int = DEFAULT_SEED
    wave_size: int | None = None
    checkpoint_dir: str | Path | None = None
    compute_cache: str | None = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0.0:
            raise ValueError("duration must be positive")
        if self.wave_size is not None and self.wave_size < 1:
            raise ValueError("wave size must be >= 1")


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
        workers: processes that ran shares, the caller included:
            the requested count, capped by the wave size and the
            subtree count.
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


def _block_sums(values: np.ndarray, blocks: int) -> list:
    """Left-to-right sums of ``blocks`` equal blocks of ``values``."""
    return values.reshape(blocks, -1).cumsum(axis=1)[:, -1].tolist()


def _simulate_pass(
    config: StreamingConfig, indices: list[int], context: tuple
) -> list[list[_TierState]]:
    """Fold tier-0 subtrees ``indices`` down to per-tier partial states.

    One array pass per tier: row ``r`` hangs off row ``r // fan_out``
    of the tier above, so subtree ``b`` owns the ``b``-th of equal row
    blocks (tier 0 has one row per subtree).  Draws, radio, resets,
    power and moments are taken per block, so a subtree's states are
    bit-identical whatever pass holds it.  ``context`` is the run's
    ``(grids, times, steady, profiles, refs, readings)``.
    """
    grids, times, steady, profiles, refs, readings = context
    spec, seed, duration_s = config.spec, config.seed, config.duration_s
    base, last, blocks = spec.base, len(spec.tiers) - 1, len(indices)
    states = [[_TierState() for _ in spec.tiers] for _ in indices]
    apps = [_stream(seed, "tiers", index, "apps") for index in indices]
    parent_refs, parent_readings = np.array([refs]), np.array([readings])
    parent_eff = parent_base = None
    for tier_index, tier in enumerate(spec.tiers):
        fan = tier.fan_out if tier_index else blocks
        size = len(parent_readings) * fan // blocks
        beacons = grids[tier_index]
        with obs.span("net.stream.draw"):
            bindings = [
                base.apps.bind_many(rng, base.abnormal_ratio, size)
                for rng in apps
            ]
            drift, offset, resets, heard, delay, noise = draw_members(
                spec, seed, indices, tier_index, size, len(beacons), duration_s
            )
        with obs.span("net.stream.replay"):
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
        with obs.span("net.stream.fold"):
            # First-order additive composition across hops.
            eff, base_eff = hop, base_hop
            if parent_eff is not None:
                eff = hop + np.repeat(parent_eff, fan, axis=0)
                base_eff = base_hop + np.repeat(parent_base, fan, axis=0)
            children = grids[tier_index + 1] if tier_index < last else ()
            energy = RadioEnergy(len(children), heard.sum(axis=1))
            radio = energy.average_uw(base.radio, duration_s)
            columns = {
                "nodes": [size] * blocks,
                "radio_sum_uw": _block_sums(radio, blocks),
                "beacons_heard": _block_sums(energy.rx_messages, blocks),
            }
            if resets is not None:
                finite = np.isfinite(resets).sum(axis=1)
                columns["resets"] = _block_sums(finite, blocks)
            series = {"hop_sync": hop, "sync": eff, "unsync": base_eff}
            for name, errors in series.items():
                magnitude = np.abs(errors)
                columns[name] = Moments.rows(magnitude.reshape(blocks, -1))
                steady_rows = magnitude[:, steady:].reshape(blocks, -1)
                columns[f"steady_{name}"] = Moments.rows(steady_rows)
            for block, (parts, pairs) in enumerate(zip(states, bindings)):
                part = parts[tier_index]
                for name, values in columns.items():
                    setattr(part, name, values[block])
                power, part.floor_sum_mhz, part.repairs = bindings_power_uw(
                    pairs, base, duration_s, profiles
                )
                part.power_sum_uw = power + part.radio_sum_uw
                if tier_index < last:
                    parts[tier_index + 1].beacons_sent = size * len(children)
        if tier_index < last:
            parent_refs = read_clocks(offset, drift, None, children)
            parent_readings, parent_eff, parent_base = local, eff, base_eff
    return states


def _simulate_share(payload: tuple) -> list[list[_TierState]]:
    """One worker's share of a wave, one :func:`_simulate_pass` per pass:
    per-tier states subtree by subtree, in index order.  Pure and
    top-level, so pooled runs are bit-identical to inline ones."""
    config, passes, context = payload
    states = []
    for indices in passes:
        states += _simulate_pass(config, indices, context)
    return states


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
        name = f"stream-{content_key(identity)}.json"
        return Path(self.config.checkpoint_dir) / name

    def _load(
        self, path: Path, identity: dict
    ) -> tuple[list[_TierState], int, dict | None] | None:
        """Restore a partial merge; ``None`` when absent, stale or not
        the fold of its ``subtrees_done`` subtrees (a doctored file).

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
        spec = self.config.spec
        times, steady = error_grid(self.config.duration_s)
        consistent = all(
            part.consistent(done * count // spec.subtrees, len(times), steady)
            for part, count in zip(state, spec.tier_counts)
        )
        if not (0 <= done <= spec.subtrees and consistent):
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
            workers: processes, the caller included; one set of
                children serves every wave (1 = inline).
            max_waves: stop after this many waves even if subtrees
                remain — the knob CI's kill-and-resume check uses to
                interrupt a run at a deterministic point.
        """
        config = self.config
        spec, seed, duration_s = config.spec, config.seed, config.duration_s

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
        # Every parent of a tier broadcasts on the same global grid;
        # the root's beacons are tier 0's.
        schedules = [
            beacon_schedule(tier.beacon_period_s, duration_s, root_clock)
            for tier in spec.tiers
        ]
        beacons = schedules[0] if schedules else []
        grids = [np.array([b.tx_global for b in s]) for s in schedules]
        root_refs = [b.ref_timestamp for b in beacons]
        times, steady = error_grid(duration_s)
        root_readings = [root_clock.read(t) for t in times]
        times = np.array(times)

        subtrees = spec.subtrees
        wave_size = config.wave_size or max(subtrees, 1)
        waves = -(-subtrees // wave_size) if subtrees else 0
        # No wave runs more subtrees in parallel than it holds.
        workers_used = max(1, min(workers, wave_size, subtrees))
        cells = spec.subtree_nodes * max(len(times), 1)
        per_pass = max(1, PASS_CELLS // max(cells, 1))

        # Profiles are resolved once, in the main process, from the
        # source's closed binding universe — workers only ever look
        # up.  As in FleetRunner.run, the resolve runs inside the timed
        # window, so reported throughput includes compute.
        run_span = obs.span("net.stream.run").start()
        # numpy loads numpy.random lazily (~10 ms): load it once here,
        # so the children the waves fork inherit it.
        importlib.import_module("numpy.random")
        with obs.span("net.compute.resolve"):
            profiles, profile_summary = profile_table(
                spec.base, duration_s, config.compute_cache
            )
        context = (grids, times, steady, profiles, root_refs, root_readings)

        state = [_TierState() for _ in spec.tiers]
        done = 0
        resumed = 0
        checkpoint = None
        registry = obs.active()
        # Counter baseline for the checkpointed delta: the preamble
        # above (root build, schedules, profile resolve) re-runs alike
        # in every run, cold or resumed, so only counters recorded past
        # this point belong to the persisted delta.
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
        # One set of children, forked at the first pooled wave, serves
        # every wave; share 0 of each wave runs here.
        with worker_pool(workers_used):
            while done < subtrees:
                if max_waves is not None and waves_run >= max_waves:
                    break
                count = min(wave_size, subtrees - done)
                obs.add("net.stream.waves")
                obs.add("net.stream.subtrees", count)
                obs.add("net.stream.nodes", count * spec.subtree_nodes)
                obs.gauge("net.stream.wave_size", wave_size)
                # One contiguous share per worker, cut into passes.
                step = even_shard_size(count, workers_used)
                payloads = [
                    (config, shard(share, per_pass), context)
                    for share in shard(range(done, done + count), step)
                ]
                with obs.span("net.stream.wave"):
                    for share in pool_map(
                        _simulate_share, payloads, len(payloads)
                    ):
                        for parts in share:
                            for tier_state, part in zip(state, parts):
                                tier_state.fold(part)
                done += count
                executed += count
                waves_run += 1
                if checkpoint is not None:
                    delta = None
                    if registry is not None:
                        delta = obs.counter_delta(
                            base, registry.deterministic()
                        )
                    with obs.span("net.stream.checkpoint.write"):
                        self._write(checkpoint, identity, done, state, delta)
        elapsed = run_span.stop()
        # Emitted once, after the final checkpoint write, so the
        # persisted delta never contains it: cold, killed and resumed
        # runs all end up with exactly one emission.
        record_compute_counters(profile_summary)

        root_energy = RadioEnergy(tx_messages=len(beacons))
        root_radio_uw = root_energy.average_uw(spec.base.radio, duration_s)
        root_power_uw, _, _ = bindings_power_uw(
            [(root_binding, 1)], spec.base, duration_s, profiles
        )
        root_power_uw += root_radio_uw

        tiers = []
        for index, (tier, tier_state) in enumerate(zip(spec.tiers, state)):
            nodes = max(tier_state.nodes, 1)
            root_sent = len(beacons) if index == 0 else 0
            tiers.append(
                TierSummary(
                    name=tier.name,
                    protocol=tier.protocol,
                    beacon_period_s=tier.beacon_period_s,
                    fan_out=tier.fan_out,
                    nodes=tier_state.nodes,
                    mean_power_uw=tier_state.power_sum_uw / nodes,
                    mean_radio_uw=tier_state.radio_sum_uw / nodes,
                    mean_floor_mhz=tier_state.floor_sum_mhz / nodes,
                    repairs=tier_state.repairs,
                    beacons_sent=tier_state.beacons_sent + root_sent,
                    beacons_heard=tier_state.beacons_heard,
                    power_loss_resets=tier_state.resets,
                    **tier_state.errors(),
                )
            )

        # Fleet-wide totals fold the tiers in order, like the waves.
        fleet = _TierState(
            nodes=1,
            power_sum_uw=root_power_uw,
            radio_sum_uw=root_radio_uw,
            beacons_sent=len(beacons),
        )
        for part in state:
            fleet.fold(part)
        errors = fleet.errors()
        summary = FleetSummary(
            scenario=token,
            protocol="/".join(t.protocol for t in spec.tiers) or "none",
            n_nodes=fleet.nodes,
            duration_s=duration_s,
            total_power_uw=fleet.power_sum_uw,
            mean_power_uw=fleet.power_sum_uw / fleet.nodes,
            mean_radio_uw=fleet.radio_sum_uw / fleet.nodes,
            beacons_sent=fleet.beacons_sent,
            beacons_heard=fleet.beacons_heard,
            power_loss_resets=fleet.resets,
            source=spec.base.apps.kind,
            **{name: errors[name] for name in SYNC_FIELDS},
        )

        nodes_run = executed * spec.subtree_nodes
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
            nodes_per_second=nodes_run / elapsed if elapsed > 0.0 else 0.0,
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
    compute: str = "exact",
    compute_cache: str | None = None,
) -> HierarchyResult:
    """One-call streaming run of a hierarchy token, preset or spec.

    ``compute`` / ``compute_cache`` mirror
    :func:`repro.net.fleet.run_fleet`, minus its inline path: the app
    profiles always resolve through the shared compute cache.

    Raises:
        ValueError: ``compute`` is not ``"exact"``.
    """
    spec = (
        tiers if isinstance(tiers, HierarchySpec) else parse_hierarchy(tiers)
    )
    if compute != "exact":
        raise ValueError(f"unknown compute mode {compute!r}; use 'exact'")
    config = StreamingConfig(
        spec=spec,
        duration_s=duration_s,
        seed=seed,
        wave_size=wave_size,
        checkpoint_dir=checkpoint_dir,
        compute_cache=compute_cache,
    )
    return StreamingRunner(config).run(workers=workers, max_waves=max_waves)
