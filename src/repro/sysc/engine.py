"""System-level behavioural simulator (the paper's SystemC analogue).

Sec. IV-C: cycle-accurate (RTL) simulation of 60 s of ECG is
infeasible, so the paper annotates a SystemC architectural model with
per-component energies and simulates at the application level.  This
module is that model: it replays a beat schedule through a mapped
application at *sample granularity*, tracking per-core work queues,
clock-gated cycles, instruction/data traffic, broadcast merging and
synchronization activity — everything
:func:`repro.power.energy.compute_power` needs, plus the behavioural
rows of Table I.

Between two abnormal beats every core's queue gains and drains the
same amount each sample, so :func:`simulate` replays each queue in
closed form from one arrival to the next (:func:`_replay`) instead of
stepping every sample: 60 s of ECG costs one step per abnormal beat
and core, not 15,000 ticks.  ``tests/sysc/reference_engine.py`` keeps
the per-sample tick loop as the differential oracle it is tested
against.

Three execution modes mirror the paper's comparisons:

* ``SINGLE_CORE`` — the baseline: all phases time-share one core that
  is sized to the average workload (duty ~1 at the chosen clock).
* ``MULTI_CORE`` — the proposed system: one core per phase replica,
  clock-gating through the synchronizer, lock-step broadcast.
* ``MULTI_CORE_NO_SYNC`` — the Fig. 6 strawman: same mapping but
  *active waiting* instead of SLEEP (idle capacity burns as spin
  loops) and no lock-step recovery (no instruction broadcast).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .. import obs
from ..apps.mapping import (
    MappingPlan,
    map_multicore,
    map_singlecore,
    plan_required_mhz,
)
from ..apps.phases import AppSpec, Trigger
from ..power.components import DEFAULT_ENERGY, EnergyParams
from ..power.energy import ActivityVector, PowerReport, compute_power
from ..power.process import DEFAULT_PROCESS, ProcessModel
from ..power.vfs import (
    MIN_SYSTEM_CLOCK_MHZ,
    OperatingPoint,
    plan_operating_point,
)

if TYPE_CHECKING:  # only read as a type: numpy stays unloaded
    from ..signals.records import EcgRecord

#: Data accesses per cycle of a busy-wait polling loop (one flag load
#: every ~3 instructions).
SPIN_DM_RATE = 1.0 / 3.0

#: Fraction of executed synchronization instructions that end up as a
#: (merged) memory modification of a sync point; SLEEPs never write
#: and same-cycle batches collapse into single writes.
SYNC_WRITE_FRACTION = 0.5


class Mode(enum.Enum):
    """Execution configuration being simulated."""

    SINGLE_CORE = "single-core"
    MULTI_CORE = "multi-core"
    MULTI_CORE_NO_SYNC = "multi-core-no-sync"


@dataclass(frozen=True)
class BeatEvent:
    """One heartbeat in the input schedule.

    Attributes:
        sample: R-peak position in samples.
        abnormal: True when the beat triggers the on-demand chain.
    """

    sample: int
    abnormal: bool


def schedule_from_record(record: EcgRecord) -> list[BeatEvent]:
    """Extract the beat schedule of a synthesised record."""
    return [BeatEvent(sample=beat.sample, abnormal=beat.is_pathological)
            for beat in record.annotations]


def uniform_schedule(duration_s: float, fs: float, bpm: float = 72.0,
                     abnormal_ratio: float = 0.0) -> list[BeatEvent]:
    """Synthetic schedule with uniformly spread abnormal beats.

    Matches the Fig. 7 setting ("the abnormal heartbeats have been
    distributed uniformly") without synthesising waveforms.
    """
    period = 60.0 / bpm * fs
    count = int(duration_s * fs / period)
    if count <= 0:
        return []
    abnormal_target = abnormal_ratio * count
    events = []
    credit = 0.0
    for index in range(count):
        credit += abnormal_target / count
        abnormal = credit >= 1.0
        if abnormal:
            credit -= 1.0
        events.append(BeatEvent(sample=int((index + 0.6) * period),
                                abnormal=abnormal))
    return events


@lru_cache(maxsize=4096)
def cached_uniform_schedule(duration_s: float, fs: float,
                            bpm: float = 72.0,
                            abnormal_ratio: float = 0.0
                            ) -> tuple[BeatEvent, ...]:
    """Memoised :func:`uniform_schedule` (immutable tuple form).

    Fleets rebuild identical schedules for every node that shares a
    ``(duration, fs, bpm, abnormal_ratio)`` shape; this caches the
    construction per process.  The result is a tuple of frozen
    :class:`BeatEvent` values, so sharing one schedule across nodes
    (and threads) is safe — ``simulate()`` only ever reads it.
    """
    return tuple(uniform_schedule(duration_s, fs, bpm=bpm,
                                  abnormal_ratio=abnormal_ratio))


@dataclass
class SimulationResult:
    """Everything one (application, mode) simulation produces.

    Attributes:
        mode: simulated configuration.
        mapping: the mapping plan used.
        operating_point: chosen clock and voltage (VFS).
        required_mhz: clock requirement before the platform floor.
        activity: platform-neutral counters for the power model.
        power: average-power decomposition.
        im_broadcast_fraction: Table I "IM Broadcast".
        dm_broadcast_fraction: Table I "DM Broadcast".
        runtime_overhead: Table I "Run-time Overhead".
        max_latency_s: worst work-queue latency observed (real-time
            check; streaming phases must stay near zero).
        duration_s: simulated time span.
    """

    mode: Mode
    mapping: MappingPlan
    operating_point: OperatingPoint
    required_mhz: float
    activity: ActivityVector
    power: PowerReport
    im_broadcast_fraction: float
    dm_broadcast_fraction: float
    runtime_overhead: float
    max_latency_s: float
    duration_s: float

    @property
    def app_name(self) -> str:
        """Benchmark name."""
        return self.mapping.app.name

    @property
    def code_overhead(self) -> float:
        """Table I "Code Overhead" (static, from the mapping)."""
        return self.mapping.code_overhead


@dataclass(frozen=True)
class _Core:
    """Work sources of one simulated core.

    Attributes:
        load: cycles enqueued every tick (streaming work plus its
            sync instructions).
        sync: sync instructions among ``load``.
        dm_rate: data accesses per executed cycle.
        beat_work: cycles enqueued per abnormal beat, one entry per
            triggered phase the core serves (app phase order).
        beat_sync: sync instructions among one beat's work.
        group: lock-step group (phase name); None outside a group.
        alignment: lock-step alignment of the group (0 without sync).
        shared_read_fraction: fraction of the group's data reads
            that merge.
    """

    load: float
    sync: float
    dm_rate: float
    beat_work: tuple[float, ...] = ()
    beat_sync: float = 0.0
    group: str | None = None
    alignment: float = 0.0
    shared_read_fraction: float = 0.0


def _replay(core: _Core, capacity: float,
            beats: Sequence[tuple[int, int]],
            ticks: int) -> tuple[float, float]:
    """Executed cycles and peak backlog of one core's work queue.

    Every tick enqueues ``core.load`` and executes up to ``capacity``
    cycles; an abnormal beat enqueues ``core.beat_work`` at the start
    of its tick.  Between arrivals the backlog moves by the same
    ``d = load - capacity`` every tick, so a gap of ``g`` ticks that
    starts with backlog ``q`` leaves ``max(0, q + g*d)``, executes
    ``q + g*load`` minus that, and peaks after its first tick at
    ``max(0, q + d)`` (at its end when ``d > 0``).  That is the
    sample-granularity tick loop, one step per arrival tick.

    Args:
        core: the core's work sources.
        capacity: cycles the core executes per tick.
        beats: ``(tick, abnormal beats)`` pairs, ascending ticks in
            ``[0, ticks)``.
        ticks: samples simulated.
    """
    excess = core.load - capacity
    queue = executed = peak = 0.0
    start = 0
    for tick, count in [*beats, (ticks, 0)]:
        gap = tick - start
        if gap:
            end = max(0.0, queue + gap * excess)
            executed += queue + gap * core.load - end
            peak = max(peak, end if excess > 0 else queue + excess)
            queue = end
        for work in core.beat_work:
            queue += work * count
        start = tick
    return executed, peak


def _required_clock_mhz(app: AppSpec, mode: Mode,
                        schedule: Sequence[BeatEvent],
                        duration_s: float,
                        mapping: MappingPlan) -> float:
    """Sizing step of Sec. V-A: the minimum clock for real time."""
    if mode is Mode.SINGLE_CORE:
        abnormal = sum(1 for event in schedule if event.abnormal)
        streaming = app.streaming_cycles_per_sample * app.fs
        triggered = (abnormal * app.triggered_cycles_per_beat
                     / duration_s if duration_s > 0 else 0.0)
        return (streaming + triggered) / 1e6
    # Multi-core: the busiest *streaming* core sets the clock; the
    # on-demand chain runs at beat rate with a relaxed (multi-beat)
    # deadline and never dominates.  Cores hosting several streaming
    # phases (coalesced search placements) are sized for their summed
    # load.
    return plan_required_mhz(mapping, with_sync=mode is Mode.MULTI_CORE)


def simulate(app: AppSpec, mode: Mode, schedule: Sequence[BeatEvent],
             duration_s: float = 60.0, num_cores: int = 8,
             energy: EnergyParams = DEFAULT_ENERGY,
             process: ProcessModel = DEFAULT_PROCESS,
             floor_mhz: float = MIN_SYSTEM_CLOCK_MHZ,
             mapping: MappingPlan | None = None) -> SimulationResult:
    """Simulate one application in one configuration.

    Args:
        app: benchmark application.
        mode: configuration to simulate.
        schedule: input beat schedule (drives the on-demand phases).
        duration_s: simulated time span (the paper uses 60 s).
        num_cores: cores of the multi-core platform.
        energy: component-energy calibration.
        process: VFS process model.
        floor_mhz: minimum system clock the VFS planner may choose
            (the paper's platform floor is 1 MHz; sweeps raise it to
            probe VFS sensitivity).
        mapping: a precomputed mapping plan for ``app`` (the policy
            explorer evaluates alternative placements this way); the
            paper's default placement is derived when omitted.

    Raises:
        ValueError: ``mapping`` targets the wrong platform kind for
            ``mode``.
    """
    app.validate()
    multicore = mode is not Mode.SINGLE_CORE
    if mapping is None:
        mapping = map_multicore(app, num_cores) if multicore \
            else map_singlecore(app)
    elif mapping.multicore != multicore:
        raise ValueError(
            f"mapping is {'multi' if mapping.multicore else 'single'}"
            f"-core but mode is {mode.value}")
    required = _required_clock_mhz(app, mode, schedule, duration_s,
                                   mapping)
    point = plan_operating_point(required, process=process,
                                 single_core=not multicore,
                                 floor_mhz=floor_mhz)

    with_sync = mode is Mode.MULTI_CORE
    span = app.beat_span_samples
    cores: list[_Core] = []
    if multicore:
        for assignment in mapping.assignments:
            phase = app.phase(assignment.phase)
            sync = phase.sync_ops_per_sample if with_sync else 0.0
            streaming = phase.trigger is Trigger.STREAMING
            cores.append(_Core(
                load=phase.cycles_per_sample + sync if streaming else 0.0,
                sync=sync if streaming else 0.0,
                dm_rate=phase.dm_access_rate,
                beat_work=() if streaming
                else ((phase.cycles_per_sample + sync) * span,),
                beat_sync=0.0 if streaming else sync * span,
                group=phase.name if (phase.replicas > 1
                                     and phase.lockstep_alignment > 0)
                else None,
                alignment=phase.lockstep_alignment if with_sync else 0.0,
                shared_read_fraction=phase.shared_read_fraction,
            ))
    else:
        rates = [(phase.cycles_per_sample * phase.replicas,
                  phase.dm_access_rate) for phase in app.phases]
        total = sum(cycles for cycles, _ in rates) or 1.0
        blended_rate = sum(cycles * rate for cycles, rate in rates) / total
        cores.append(_Core(
            load=app.streaming_cycles_per_sample, sync=0.0,
            dm_rate=blended_rate,
            beat_work=tuple(phase.cycles_per_sample * span
                            for phase in app.phases
                            if phase.trigger is not Trigger.STREAMING)))

    fs = app.fs
    ticks = int(round(duration_s * fs))
    capacity = point.cycles_per_second / fs  # cycles per tick
    beats_by_tick: dict[int, int] = {}
    for event in schedule:
        if event.abnormal and 0 <= event.sample < ticks:
            beats_by_tick[event.sample] = \
                beats_by_tick.get(event.sample, 0) + 1
    beats = sorted(beats_by_tick.items())
    abnormal_beats = sum(beats_by_tick.values())

    obs.add("engine.simulations")
    obs.add(f"engine.mode.{mode.value}")
    obs.add("engine.ticks", ticks)
    if abnormal_beats:
        obs.add("engine.beats.abnormal", abnormal_beats)

    executed: list[float] = []
    max_queue = 0.0
    for core in cores:
        done, peak = _replay(core, capacity, beats, ticks)
        executed.append(done)
        max_queue = max(max_queue, peak)

    # Lock-step replicas run identical queues, so whenever one executes
    # all do, and each tick merges (n - 1)/n of the group's fetches.
    im_merged = 0.0
    dm_merged = 0.0
    groups: dict[str, list[int]] = {}
    for index, core in enumerate(cores):
        if core.group is not None:
            groups.setdefault(core.group, []).append(index)
    for members in groups.values():
        if len(members) < 2:
            continue
        lead = cores[members[0]]
        weight = lead.alignment * ((len(members) - 1) / len(members))
        im_merged += weight * sum(executed[i] for i in members)
        dm_merged += (weight * lead.shared_read_fraction
                      * sum(executed[i] * cores[i].dm_rate
                            for i in members))

    wall_cycles = ticks * capacity
    total_executed = sum(executed)
    total_dm = sum(done * core.dm_rate
                   for done, core in zip(executed, cores))
    total_spin = 0.0
    if mode is Mode.MULTI_CORE_NO_SYNC:
        # Active waiting: every idle cycle spins on a polling loop.
        total_spin = sum(wall_cycles - done for done in executed)
        total_dm += total_spin * SPIN_DM_RATE
    total_fetch = total_executed + total_spin
    total_sync = sum(core.sync * ticks + core.beat_sync * abnormal_beats
                     for core in cores)
    sync_writes = total_sync * SYNC_WRITE_FRACTION

    activity = ActivityVector(
        cycles=wall_cycles,
        core_active_cycles=total_fetch,
        im_accesses=total_fetch - im_merged,
        dm_accesses=total_dm - dm_merged + sync_writes,
        interconnect_grants=total_fetch + total_dm + sync_writes,
        sync_ops=total_sync,
        cores_on=mapping.active_cores,
        im_banks_on=len(mapping.im_banks_used),
        dm_banks_on=mapping.dm_banks_active,
        platform_cores=num_cores if multicore else 1,
    )
    power = compute_power(activity, point, multicore=multicore,
                          params=energy, process=process)
    return SimulationResult(
        mode=mode,
        mapping=mapping,
        operating_point=point,
        required_mhz=required,
        activity=activity,
        power=power,
        im_broadcast_fraction=im_merged / total_fetch if total_fetch else 0.0,
        dm_broadcast_fraction=dm_merged / total_dm if total_dm else 0.0,
        runtime_overhead=total_sync / total_executed
        if total_executed else 0.0,
        max_latency_s=max_queue / point.cycles_per_second,
        duration_s=duration_s,
    )
