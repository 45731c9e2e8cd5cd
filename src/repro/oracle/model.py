"""Vectorised analytic cost model over populations of candidates.

:func:`repro.sysc.engine.simulate` evaluates one mapping per call.
For multi-core placements its activity counters split into

* a **base** that depends only on ``(application, duration)`` — the
  per-replica executed/sync/data-access totals of the phases — and
* a **candidate part** that depends only on the chosen clock (the
  per-core summed streaming load), the distinct cores and the distinct
  IM banks of the placement.

:class:`AnalyticModel` precomputes the base once and scores whole
populations of :class:`~repro.search.space.Candidate` mappings per
call with batched numpy arithmetic: an ``N x num_cores`` scatter-add
for the clock floor, a ``searchsorted`` over the process fmax grid for
the voltage, and the :func:`repro.power.energy.compute_power` formulas
replicated element-wise.  The reduction is *exact up to float
associativity* — ``tests/oracle/test_model.py`` holds it to
``simulate()`` on sampled placements (:func:`sample_candidates`) —
and everything is a pure function of its inputs, so populations score
byte-deterministically across processes and ``PYTHONHASHSEED``
values.  The policy explorer's screen
(:func:`repro.gen.explorer.screen_policies`) is its one consumer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..apps.mapping import MappingError, distinct_sections
from ..apps.phases import AppSpec, Trigger
from ..isa.layout import DmGeometry, ImGeometry
from ..power.components import DEFAULT_ENERGY, EnergyParams
from ..power.process import DEFAULT_PROCESS, ProcessModel
from ..power.vfs import MIN_SYSTEM_CLOCK_MHZ
from ..search.cost import (
    COMPOSITE_CLOCK_WEIGHT_UW_PER_MHZ,
    ORACLE_ABNORMAL_RATIO,
    ORACLE_DURATION_S,
    ORACLE_KINDS,
)
from ..gen.policies import get_policy
from ..search.anneal import START_POLICIES
from ..search.space import Candidate, candidate_from_plan, propose
from ..sysc.engine import SYNC_WRITE_FRACTION, uniform_schedule


@dataclass(frozen=True)
class PopulationScores:
    """Analytic scores of one scored population (parallel arrays).

    Attributes:
        kind: cost kind the ``cost`` array minimises.
        cost: scalar cost per candidate (the screen ranking key).
        power_uw: average platform power per candidate.
        clock_mhz: VFS operating clock per candidate.
        voltage: supply voltage per candidate.
        required_mhz: clock requirement before the platform floor.
        duty_cycle: executed cycles / provisioned core cycles.
        sync_overhead: executed sync ops / executed cycles.
        code_overhead: inserted sync words / total code words
            (placement-independent, one scalar for the population).
        active_cores: distinct cores per candidate.
        im_banks: distinct IM banks per candidate.
    """

    kind: str
    cost: np.ndarray
    power_uw: np.ndarray
    clock_mhz: np.ndarray
    voltage: np.ndarray
    required_mhz: np.ndarray
    duty_cycle: np.ndarray
    sync_overhead: np.ndarray
    code_overhead: float
    active_cores: np.ndarray
    im_banks: np.ndarray

    def __len__(self) -> int:
        return len(self.cost)

    def metrics(self, index: int) -> dict:
        """The metric mapping of one candidate (exact-oracle shape)."""
        return {
            "power_uw": float(self.power_uw[index]),
            "clock_mhz": float(self.clock_mhz[index]),
            "voltage": float(self.voltage[index]),
            "required_mhz": float(self.required_mhz[index]),
            "duty_cycle": float(self.duty_cycle[index]),
            "sync_overhead": float(self.sync_overhead[index]),
            "code_overhead": float(self.code_overhead),
            "im_banks": int(self.im_banks[index]),
            "active_cores": int(self.active_cores[index]),
        }


def _code_overhead(app: AppSpec) -> float:
    """Table I "Code Overhead" of any multi-core placement of ``app``.

    Mirrors :meth:`repro.apps.mapping.MappingPlan.code_overhead`:
    phases sharing the same section tuple carry the same inserted
    instructions, counted once.  Placement-independent.
    """
    by_sections: dict[tuple[str, ...], int] = {}
    for phase in app.phases:
        key = tuple(section.name for section in phase.sections)
        by_sections[key] = phase.sync_code_words
    sync_words = sum(by_sections.values())
    total = (app.runtime_words
             + sum(s.words for s in distinct_sections(app))
             + sync_words)
    return sync_words / total if total else 0.0


@dataclass(frozen=True)
class _TriggeredPhase:
    """Precomputed base of one ON_ABNORMAL phase."""

    work_per_beat: float  # cycles + sync, over the whole beat span
    replicas: int
    dm_rate: float
    merge_weight: float  # alignment * (replicas - 1), 0 if no group
    shared_read_fraction: float


class AnalyticModel:
    """Closed-form reduction of ``simulate()`` for one application.

    Precomputes the per-``(app, duration)`` activity base in the
    constructor (one pass over the phases plus one beat schedule),
    then scores arbitrarily many candidates per :meth:`score` call
    with vectorised numpy arithmetic.

    Args:
        app: the (already repaired) application being placed.
        num_cores: provisioned platform width.
        kind: cost kind, one of
            :data:`repro.search.cost.ORACLE_KINDS`.
        duration_s: simulated seconds the scores correspond to.
        geometry: IM geometry (platform default when omitted).
        floor_mhz: minimum system clock of the VFS planner.
        energy: per-component energies at the reference voltage.
        process: VFS process model.
        abnormal_ratio: pathological-beat ratio applied when the app
            has triggered phases (the exact oracle's convention).

    Raises:
        ValueError: unknown cost kind or non-positive duration.
    """

    def __init__(self, app: AppSpec, num_cores: int = 8,
                 kind: str = "power",
                 duration_s: float = ORACLE_DURATION_S,
                 geometry: ImGeometry | None = None,
                 floor_mhz: float = MIN_SYSTEM_CLOCK_MHZ,
                 energy: EnergyParams = DEFAULT_ENERGY,
                 process: ProcessModel = DEFAULT_PROCESS,
                 abnormal_ratio: float = ORACLE_ABNORMAL_RATIO) -> None:
        if kind not in ORACLE_KINDS:
            raise ValueError(
                f"unknown cost oracle {kind!r}; choose from "
                f"{list(ORACLE_KINDS)}")
        if duration_s <= 0.0:
            raise ValueError("oracle duration must be positive")
        app.validate()
        self.app = app
        self.num_cores = num_cores
        self.kind = kind
        self.duration_s = duration_s
        self.geometry = geometry or ImGeometry()
        self.floor_mhz = floor_mhz
        self.energy = energy
        self.process = process

        fs = app.fs
        self.ticks = int(round(duration_s * fs))
        self._run_s = self.ticks / fs  # cycles / cycles_per_second
        self._fs = fs
        self._code_overhead = _code_overhead(app)
        self._dm_banks_on = DmGeometry().banks

        # Canonical slot order: (phase, replica) pairs, app phase
        # order, replicas ascending — the Candidate convention.
        self._slot_loads: list[float] = []
        self._section_names = tuple(sorted(
            section.name for section in distinct_sections(app)))

        has_triggered = any(phase.trigger is Trigger.ON_ABNORMAL
                            for phase in app.phases)
        ratio = abnormal_ratio if has_triggered else 0.0
        schedule = uniform_schedule(duration_s, fs, abnormal_ratio=ratio)
        beats_by_tick: dict[int, int] = {}
        for event in schedule:
            if event.abnormal and 0 <= event.sample < self.ticks:
                beats_by_tick[event.sample] = \
                    beats_by_tick.get(event.sample, 0) + 1
        self._beats = sorted(beats_by_tick.items())
        arrivals = sum(count for _, count in self._beats)

        # Candidate-independent activity base (streaming phases drain
        # every tick; triggered sync ops are counted at enqueue).
        exec_stream = 0.0
        sync_total = 0.0
        dm_stream = 0.0
        im_merged = 0.0
        dm_merged = 0.0
        span = app.beat_span_samples
        self._triggered: list[_TriggeredPhase] = []
        for phase in app.phases:
            grouped = phase.replicas > 1 and phase.lockstep_alignment > 0
            if phase.trigger is Trigger.STREAMING:
                load = phase.cycles_per_sample + phase.sync_ops_per_sample
                self._slot_loads.extend(
                    [load * fs / 1e6] * phase.replicas)
                member = load * self.ticks
                exec_stream += phase.replicas * member
                sync_total += (phase.replicas
                               * phase.sync_ops_per_sample * self.ticks)
                dm_stream += phase.replicas * member * phase.dm_access_rate
                if grouped and load > 0:
                    weight = (phase.lockstep_alignment
                              * (phase.replicas - 1))
                    im_merged += weight * member
                    dm_merged += (weight * member * phase.dm_access_rate
                                  * phase.shared_read_fraction)
            else:
                self._slot_loads.extend([0.0] * phase.replicas)
                work = (phase.cycles_per_sample
                        + phase.sync_ops_per_sample) * span
                sync_total += (phase.replicas * phase.sync_ops_per_sample
                               * span * arrivals)
                self._triggered.append(_TriggeredPhase(
                    work_per_beat=work,
                    replicas=phase.replicas,
                    dm_rate=phase.dm_access_rate,
                    merge_weight=(phase.lockstep_alignment
                                  * (phase.replicas - 1))
                    if grouped else 0.0,
                    shared_read_fraction=phase.shared_read_fraction,
                ))
        self._exec_stream = exec_stream
        self._sync_total = sync_total
        self._dm_stream = dm_stream
        self._im_merged_stream = im_merged
        self._dm_merged_stream = dm_merged

        # fmax grid as arrays for the vectorised voltage lookup.
        self._grid_fmax = np.array(
            [fmax for _, fmax in process.fmax_table])
        self._grid_volts = np.array(
            [volt for volt, _ in process.fmax_table])

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _as_arrays(self, candidates) -> tuple[np.ndarray, np.ndarray]:
        """(N, slots) core ids and (N, sections) bank ids, validated."""
        slots = len(self._slot_loads)
        cores = np.empty((len(candidates), slots), dtype=np.int64)
        banks = np.empty((len(candidates), len(self._section_names)),
                         dtype=np.int64)
        for row, candidate in enumerate(candidates):
            if len(candidate.cores) != slots:
                raise ValueError(
                    f"candidate has {len(candidate.cores)} core slots; "
                    f"{self.app.name} needs {slots}")
            names = tuple(name for name, _ in candidate.section_banks)
            if names != self._section_names:
                raise ValueError(
                    f"candidate section set {names} does not match "
                    f"{self._section_names}")
            cores[row] = candidate.cores
            banks[row] = [bank for _, bank in candidate.section_banks]
        if cores.size and (cores.min() < 0
                           or cores.max() >= self.num_cores):
            raise ValueError(
                f"candidate uses cores outside 0..{self.num_cores - 1}")
        if banks.size and (banks.min() < 0
                           or banks.max() >= self.geometry.banks):
            raise ValueError(
                f"candidate uses IM banks outside "
                f"0..{self.geometry.banks - 1}")
        return cores, banks

    def _triggered_executed(
        self, capacity: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(executed, dm, im_merged, dm_merged) parts per candidate.

        Replays the arrival queue of every triggered phase at *beat*
        granularity: between arrivals a queue drains ``min(queue,
        gap_ticks * capacity)`` cycles, exactly as ``simulate()``
        does, so the per-member executed total is exact even when the
        drain is cut short by the end of the run.
        """
        n = len(capacity)
        executed = np.zeros(n)
        dm = np.zeros(n)
        im_merged = np.zeros(n)
        dm_merged = np.zeros(n)
        if not self._beats:
            return executed, dm, im_merged, dm_merged
        ticks = [tick for tick, _ in self._beats]
        counts = [count for _, count in self._beats]
        gaps = [next_tick - tick for tick, next_tick
                in zip(ticks, ticks[1:] + [self.ticks])]
        for phase in self._triggered:
            queue = np.zeros(n)
            member = np.zeros(n)
            for count, gap in zip(counts, gaps):
                queue += count * phase.work_per_beat
                drain = np.minimum(queue, gap * capacity)
                member += drain
                queue -= drain
            executed += phase.replicas * member
            dm += phase.replicas * member * phase.dm_rate
            if phase.merge_weight > 0:
                im_merged += phase.merge_weight * member
                dm_merged += (phase.merge_weight * member * phase.dm_rate
                              * phase.shared_read_fraction)
        return executed, dm, im_merged, dm_merged

    def score(self, candidates) -> PopulationScores:
        """Score a whole population of candidates in one call.

        Args:
            candidates: a sequence of feasible
                :class:`~repro.search.space.Candidate` mappings of
                this model's application.

        Returns:
            Parallel score arrays, one entry per candidate, in input
            order.

        Raises:
            ValueError: empty population, or a candidate whose slots,
                sections, cores or banks do not fit this application
                and platform.
        """
        if not len(candidates):
            raise ValueError("cannot score an empty population")
        cores, banks = self._as_arrays(candidates)
        n = len(candidates)
        rows = np.arange(n)

        # Clock floor: per-core summed streaming load, slot by slot in
        # the same order plan_required_mhz accumulates it.
        loads = np.zeros((n, self.num_cores))
        for slot, load in enumerate(self._slot_loads):
            if load > 0.0:
                loads[rows, cores[:, slot]] += load
        required = loads.max(axis=1) if self.num_cores else np.zeros(n)
        clock = np.maximum(required, self.floor_mhz)

        # Voltage: smallest grid voltage whose fmax reaches the clock.
        grid = np.searchsorted(self._grid_fmax, clock - 1e-12,
                               side="left")
        if grid.max() >= len(self._grid_fmax):
            worst = float(clock.max())
            raise ValueError(
                f"no grid voltage reaches {worst} MHz "
                f"(max {self._grid_fmax[-1]} MHz)")
        voltage = self._grid_volts[grid]

        capacity = clock * 1e6 / self._fs  # cycles per tick
        wall = self.ticks * capacity
        trig_exec, trig_dm, trig_im_merged, trig_dm_merged = \
            self._triggered_executed(capacity)

        total_executed = self._exec_stream + trig_exec
        total_dm = self._dm_stream + trig_dm
        sync_writes = self._sync_total * SYNC_WRITE_FRACTION
        im_accesses = (total_executed
                       - (self._im_merged_stream + trig_im_merged))
        dm_accesses = (total_dm
                       - (self._dm_merged_stream + trig_dm_merged)
                       + sync_writes)
        grants = total_executed + total_dm + sync_writes

        # Footprint: distinct cores and distinct IM banks.
        presence = np.zeros((n, self.num_cores), dtype=bool)
        presence[rows[:, None], cores] = True
        active_cores = presence.sum(axis=1)
        bank_presence = np.zeros((n, self.geometry.banks), dtype=bool)
        bank_presence[rows[:, None], banks] = True
        im_banks = bank_presence.sum(axis=1)

        # compute_power, element-wise (same expressions, same order).
        params = self.energy
        process = self.process
        dyn = (voltage / process.reference_voltage) \
            ** process.dynamic_exponent
        leak = (voltage / process.reference_voltage) \
            ** process.leakage_exponent
        cores_pj = total_executed * params.core_active_pj
        clock_pj = (wall * (params.clock_root_base_pj
                            + params.clock_root_per_core_pj
                            * self.num_cores)
                    + total_executed * params.clock_branch_pj)
        im_pj = im_accesses * params.im_access_pj
        dm_pj = dm_accesses * params.dm_access_pj
        xbar_pj = grants * params.xbar_grant_pj
        sync_pj = (self._sync_total * params.sync_op_pj
                   + wall * params.sync_idle_pj)

        def to_uw(pico_joules):
            return pico_joules * dyn / self._run_s * 1e-6

        leakage_uw = leak * (
            im_banks * params.leak_im_bank_uw
            + self._dm_banks_on * params.leak_dm_bank_uw
            + active_cores * params.leak_core_uw
            + params.leak_xbar_uw)
        power_uw = (to_uw(cores_pj) + to_uw(clock_pj) + to_uw(im_pj)
                    + to_uw(dm_pj) + to_uw(xbar_pj) + to_uw(sync_pj)
                    + leakage_uw)

        provisioned = wall * active_cores
        duty = np.divide(total_executed, provisioned,
                         out=np.zeros(n), where=provisioned > 0)
        sync_overhead = np.divide(
            np.full(n, self._sync_total), total_executed,
            out=np.zeros(n), where=total_executed > 0)

        if self.kind == "clock":
            cost = clock.copy()
        elif self.kind == "power":
            cost = power_uw.copy()
        else:
            cost = (power_uw
                    + COMPOSITE_CLOCK_WEIGHT_UW_PER_MHZ * clock)
        return PopulationScores(
            kind=self.kind,
            cost=cost,
            power_uw=power_uw,
            clock_mhz=clock,
            voltage=voltage,
            required_mhz=required,
            duty_cycle=duty,
            sync_overhead=sync_overhead,
            code_overhead=self._code_overhead,
            active_cores=active_cores,
            im_banks=im_banks,
        )

    def score_one(self, candidate: Candidate) -> float:
        """The scalar analytic cost of one candidate."""
        return float(self.score([candidate]).cost[0])


def score_population(app: AppSpec, candidates,
                     num_cores: int = 8, kind: str = "power",
                     duration_s: float = ORACLE_DURATION_S,
                     geometry: ImGeometry | None = None,
                     floor_mhz: float = MIN_SYSTEM_CLOCK_MHZ
                     ) -> PopulationScores:
    """Score a population of candidate mappings analytically.

    One-shot convenience over :class:`AnalyticModel` — builds the
    model (one pass over the phases, no simulation) and scores the
    whole population in a single vectorised call.  Use the class
    directly when scoring several populations of the same application
    so the activity base is computed once.

    Args:
        app: the application the candidates place.
        candidates: feasible :class:`~repro.search.space.Candidate`
            mappings (see :func:`repro.search.space.violations`).
        num_cores: provisioned platform width.
        kind: cost kind, one of
            :data:`repro.search.cost.ORACLE_KINDS`.
        duration_s: simulated seconds the scores correspond to.
        geometry: IM geometry (platform default when omitted).
        floor_mhz: minimum system clock of the VFS planner.

    Returns:
        :class:`PopulationScores` — parallel arrays in input order;
        ``scores.cost`` is the ranking key of the requested kind.

    Raises:
        ValueError: bad kind/duration, empty population, or a
            candidate that does not fit the application/platform.
    """
    model = AnalyticModel(app, num_cores=num_cores, kind=kind,
                          duration_s=duration_s, geometry=geometry,
                          floor_mhz=floor_mhz)
    return model.score(candidates)


def sample_candidates(app: AppSpec, num_cores: int = 8,
                      samples: int = 6, seed: int = 0,
                      geometry: ImGeometry | None = None
                      ) -> list[Candidate]:
    """Sampled placements of one (already repaired) application.

    The policy start points come first (deduplicated, policy order),
    then seeded mutation walks extend the set until ``samples``
    distinct candidates exist (or the walk stalls).  Deterministic in
    ``(app identity, parameters, seed)``.
    """
    geom = geometry or ImGeometry()
    found: list[Candidate] = []
    seen: set[Candidate] = set()
    for name in START_POLICIES:
        try:
            plan = get_policy(name).map(app, num_cores, geom)
        except MappingError:
            continue
        candidate = candidate_from_plan(plan)
        if candidate not in seen:
            seen.add(candidate)
            found.append(candidate)
    if not found:
        return []
    rng = random.Random(seed)
    current = found[0]
    stalls = 0
    while len(found) < samples and stalls < 64:
        neighbour = propose(app, current, rng, num_cores, geom)
        if neighbour is None:
            stalls += 1
            continue
        current = neighbour
        if neighbour in seen:
            stalls += 1
            continue
        stalls = 0
        seen.add(neighbour)
        found.append(neighbour)
    return found[:samples]
