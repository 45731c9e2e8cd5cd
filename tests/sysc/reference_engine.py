"""Reference tick loop of the behavioural simulator (test oracle).

:func:`repro.sysc.engine.simulate` replays each core's work queue in
closed form between abnormal-beat arrivals.  This module keeps the
sample-granularity tick loop that replay replaced, unchanged, so the
differential tests can hold every float the engine reports to it.
Sizing, the operating point and the power model are shared with the
engine; only the queue replay differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.apps.mapping import MappingPlan, map_multicore, map_singlecore
from repro.apps.phases import AppSpec, Trigger
from repro.power.energy import ActivityVector, compute_power
from repro.power.vfs import MIN_SYSTEM_CLOCK_MHZ, plan_operating_point
from repro.sysc.engine import (
    SPIN_DM_RATE,
    SYNC_WRITE_FRACTION,
    BeatEvent,
    Mode,
    SimulationResult,
    _required_clock_mhz,
)


@dataclass
class _CoreState:
    """Work-queue state of one simulated core."""

    phase_name: str
    streaming_cycles: float  # enqueued every sample
    streaming_sync: float
    dm_rate: float
    queue: float = 0.0
    executed: float = 0.0
    spin: float = 0.0
    dm_accesses: float = 0.0
    sync_ops: float = 0.0
    executed_this_tick: float = 0.0
    group: str | None = None  # lock-step group (phase name)
    shared_read_fraction: float = 0.0
    alignment: float = 0.0


def simulate(app: AppSpec, mode: Mode, schedule: Sequence[BeatEvent],
             duration_s: float = 60.0, num_cores: int = 8,
             floor_mhz: float = MIN_SYSTEM_CLOCK_MHZ,
             mapping: MappingPlan | None = None) -> SimulationResult:
    """Simulate one application in one configuration, tick by tick.

    Same signature, counters and result as
    :func:`repro.sysc.engine.simulate`.
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
    required = _required_clock_mhz(
        app, mode, sum(1 for event in schedule if event.abnormal),
        duration_s, mapping)
    point = plan_operating_point(required,
                                 single_core=not multicore,
                                 floor_mhz=floor_mhz)

    # ------------------------------------------------------------------
    # Build per-core state.
    # ------------------------------------------------------------------
    with_sync = mode is Mode.MULTI_CORE
    cores: list[_CoreState] = []
    triggered_cores: dict[str, list[int]] = {}
    if multicore:
        for assignment in mapping.assignments:
            phase = app.phase(assignment.phase)
            streaming = phase.trigger is Trigger.STREAMING
            state = _CoreState(
                phase_name=phase.name,
                streaming_cycles=phase.cycles_per_sample
                if streaming else 0.0,
                streaming_sync=phase.sync_ops_per_sample
                if (streaming and with_sync) else 0.0,
                dm_rate=phase.dm_access_rate,
                group=phase.name if (phase.replicas > 1
                                     and phase.lockstep_alignment > 0)
                else None,
                shared_read_fraction=phase.shared_read_fraction,
                alignment=phase.lockstep_alignment if with_sync else 0.0,
            )
            cores.append(state)
            if not streaming:
                triggered_cores.setdefault(phase.name, []).append(
                    len(cores) - 1)
    else:
        streaming_total = app.streaming_cycles_per_sample
        rates = [(phase.cycles_per_sample * phase.replicas,
                  phase.dm_access_rate) for phase in app.phases]
        total = sum(cycles for cycles, _ in rates) or 1.0
        blended_rate = sum(cycles * rate for cycles, rate in rates) / total
        cores.append(_CoreState(
            phase_name="all", streaming_cycles=streaming_total,
            streaming_sync=0.0, dm_rate=blended_rate))
        for phase in app.phases:
            if phase.trigger is not Trigger.STREAMING:
                triggered_cores.setdefault(phase.name, []).append(0)

    # ------------------------------------------------------------------
    # Tick loop at sample granularity.
    # ------------------------------------------------------------------
    fs = app.fs
    ticks = int(round(duration_s * fs))
    capacity = point.cycles_per_second / fs  # cycles per tick
    beats_by_tick: dict[int, int] = {}
    for event in schedule:
        if event.abnormal and 0 <= event.sample < ticks:
            beats_by_tick[event.sample] = \
                beats_by_tick.get(event.sample, 0) + 1

    obs.add("engine.simulations")
    obs.add(f"engine.mode.{mode.value}")
    obs.add("engine.ticks", ticks)
    abnormal_beats = sum(beats_by_tick.values())
    if abnormal_beats:
        obs.add("engine.beats.abnormal", abnormal_beats)

    groups: dict[str, list[_CoreState]] = {}
    for state in cores:
        if state.group is not None:
            groups.setdefault(state.group, []).append(state)

    im_merged = 0.0
    dm_merged = 0.0
    max_queue = 0.0
    triggered_sync = {
        phase.name: (phase.sync_ops_per_sample if with_sync else 0.0)
        for phase in app.phases
    }
    for tick in range(ticks):
        arrivals = beats_by_tick.get(tick, 0)
        if arrivals:
            for phase in app.phases:
                if phase.trigger is not Trigger.ON_ABNORMAL:
                    continue
                work = (phase.cycles_per_sample
                        + triggered_sync[phase.name]) \
                    * app.beat_span_samples * arrivals
                for core_index in triggered_cores.get(phase.name, []):
                    state = cores[core_index]
                    state.queue += work
                    state.sync_ops += (triggered_sync[phase.name]
                                       * app.beat_span_samples * arrivals)
        for state in cores:
            state.queue += state.streaming_cycles + state.streaming_sync
            state.sync_ops += state.streaming_sync
            executed = min(state.queue, capacity)
            state.queue -= executed
            state.executed += executed
            state.executed_this_tick = executed
            state.dm_accesses += executed * state.dm_rate
            if mode is Mode.MULTI_CORE_NO_SYNC:
                spin = capacity - executed
                state.spin += spin
                state.dm_accesses += spin * SPIN_DM_RATE
            max_queue = max(max_queue, state.queue)
        for members in groups.values():
            active = [m for m in members if m.executed_this_tick > 0]
            if len(active) < 2:
                continue
            share = (len(active) - 1) / len(active)
            fetched = sum(m.executed_this_tick for m in active)
            alignment = active[0].alignment
            im_merged += alignment * share * fetched
            dm_merged += (alignment * share
                          * active[0].shared_read_fraction
                          * sum(m.executed_this_tick * m.dm_rate
                                for m in active))

    # ------------------------------------------------------------------
    # Aggregate.
    # ------------------------------------------------------------------
    total_executed = sum(state.executed for state in cores)
    total_spin = sum(state.spin for state in cores)
    total_fetch = total_executed + total_spin
    total_dm = sum(state.dm_accesses for state in cores)
    total_sync = sum(state.sync_ops for state in cores) if with_sync else 0.0
    sync_writes = total_sync * SYNC_WRITE_FRACTION
    wall_cycles = ticks * capacity

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
    power = compute_power(activity, point, multicore=multicore)
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
