"""Mapping step of the synchronization methodology (Sec. III-B, step 3).

"Binary code of the different phases is placed in different IM banks in
order to avoid access conflicts and benefit from broadcasting.
Moreover, the threshold between shared and private sections in memory
and the number of synchronization points must be configured."

Two mapping policies are implemented:

* :func:`map_multicore` — one core per phase replica; the shared
  runtime and the first phase's (replicated, broadcast-friendly) code
  share bank 0, every other distinct section gets its own bank so
  cores running different phases never conflict on instruction
  fetches.  Sections are de-duplicated by name: RP-CLASS's on-demand
  filter replicas fetch the *same* ``mf`` code as the main filter.
* :func:`map_singlecore` — the baseline: all sections first-fit packed
  into as few banks as possible ("the mapping of code in the IM is
  less constrained", Sec. V-A); unused banks are powered off.

The plan also derives every static Table I quantity: active cores,
active IM/DM banks, code overhead, and the number of synchronization
points the application needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..isa.layout import (
    DM_BANKS,
    DM_WORDS_PER_BANK,
    IM_BANKS,
    IM_WORDS_PER_BANK,
)
from .phases import AppSpec, PhaseSpec, SectionSpec, Trigger


class MappingError(Exception):
    """The application does not fit the platform."""


@dataclass(frozen=True)
class CoreAssignment:
    """One phase replica placed on one core.

    Attributes:
        core: core identifier.
        phase: phase name.
        replica: replica index within the phase.
    """

    core: int
    phase: str
    replica: int


@dataclass
class MappingPlan:
    """The result of the mapping step for one platform configuration.

    Attributes:
        app: the mapped application.
        multicore: multi-core target (vs. single-core baseline).
        assignments: phase replica -> core placements.
        section_banks: IM bank of every distinct code section.
        sync_points_used: synchronization points the mapping reserves
            (one per lock-step group + one per channel).
        dm_footprint_words: total data words the application touches.
    """

    app: AppSpec
    multicore: bool
    assignments: list[CoreAssignment]
    section_banks: dict[str, int]
    sync_points_used: int
    dm_footprint_words: int

    @property
    def active_cores(self) -> int:
        """Cores the application occupies (Table I "Active Cores")."""
        if not self.multicore:
            return 1
        return len({assignment.core for assignment in self.assignments})

    @property
    def im_banks_used(self) -> set[int]:
        """IM banks holding code (Table I "Active IM banks")."""
        return set(self.section_banks.values())

    @property
    def dm_banks_active(self) -> int:
        """Powered DM banks (Table I "Active DM banks").

        All banks on the multi-core platform (the ATU interleaves the
        shared section over every bank, Sec. V-A); the footprint-cover
        on the baseline.
        """
        if self.multicore:
            return DM_BANKS
        return max(1, math.ceil(self.dm_footprint_words
                                / DM_WORDS_PER_BANK))

    @property
    def total_code_words(self) -> int:
        """Code size including runtime and inserted sync instructions."""
        sections = distinct_sections(self.app)
        base = self.app.runtime_words + sum(s.words for s in sections)
        return base + self.sync_code_words

    @property
    def sync_code_words(self) -> int:
        """Synchronization instructions inserted by the methodology.

        Phases sharing the same code sections (e.g. RP-CLASS's main
        and on-demand filters both run ``mf``) carry the *same*
        inserted instructions, so they are counted once.
        """
        if not self.multicore:
            return 0
        by_sections: dict[tuple[str, ...], int] = {}
        for phase in self.app.phases:
            key = tuple(section.name for section in phase.sections)
            previous = by_sections.get(key)
            if previous is not None and previous != phase.sync_code_words:
                raise MappingError(
                    f"phases sharing sections {key} declare different "
                    f"sync_code_words")
            by_sections[key] = phase.sync_code_words
        return sum(by_sections.values())

    @property
    def code_overhead(self) -> float:
        """Table I "Code Overhead": sync words / total code words."""
        if not self.multicore:
            return 0.0
        return self.sync_code_words / self.total_code_words


def distinct_sections(app: AppSpec) -> list[SectionSpec]:
    """Sections de-duplicated by name, in phase order."""
    seen: dict[str, SectionSpec] = {}
    for phase in app.phases:
        for section in phase.sections:
            existing = seen.get(section.name)
            if existing is None:
                seen[section.name] = section
            elif existing.words != section.words:
                raise MappingError(
                    f"section {section.name!r} declared with two sizes")
    return list(seen.values())


def dm_footprint(app: AppSpec) -> int:
    """Total data words an application touches (all replicas)."""
    return sum(phase.dm_words * phase.replicas for phase in app.phases)


def sync_points(app: AppSpec) -> int:
    """Synchronization points an application needs (groups + channels)."""
    groups = sum(1 for phase in app.phases
                 if phase.replicas > 1 and phase.lockstep_alignment > 0)
    return groups + len(app.channels)


def least_filled_bank(fill: list[int], words: int,
                      exclude: int | None = None) -> int | None:
    """Least-filled IM bank with room for ``words`` (ties: lowest id),
    ``exclude`` aside; None when no bank has room."""
    best: int | None = None
    for bank, current in enumerate(fill):
        if bank == exclude or current + words > IM_WORDS_PER_BANK:
            continue
        if best is None or current < fill[best]:
            best = bank
    return best


def map_multicore(app: AppSpec, num_cores: int = 8) -> MappingPlan:
    """Map an application onto the multi-core platform."""
    app.validate()
    assignments: list[CoreAssignment] = []
    next_core = 0
    for phase in app.phases:
        for replica in range(phase.replicas):
            if next_core >= num_cores:
                raise MappingError(
                    f"{app.name} needs more than {num_cores} cores")
            assignments.append(CoreAssignment(
                core=next_core, phase=phase.name, replica=replica))
            next_core += 1

    section_banks: dict[str, int] = {}
    bank_fill: dict[int, int] = {0: app.runtime_words}
    next_bank = 0
    for index, phase in enumerate(app.phases):
        for section in phase.sections:
            if section.name in section_banks:
                continue  # shared code (e.g. RP-CLASS's mf)
            if index == 0:
                bank = 0  # first phase shares bank 0 with the runtime
            else:
                next_bank += 1
                bank = next_bank
            if bank >= IM_BANKS:
                raise MappingError(
                    f"{app.name}: out of IM banks at {section.name!r}")
            fill = bank_fill.get(bank, 0) + section.words
            if fill > IM_WORDS_PER_BANK:
                raise MappingError(
                    f"{app.name}: section {section.name!r} overflows "
                    f"bank {bank}")
            bank_fill[bank] = fill
            section_banks[section.name] = bank

    return MappingPlan(
        app=app, multicore=True, assignments=assignments,
        section_banks=section_banks, sync_points_used=sync_points(app),
        dm_footprint_words=dm_footprint(app))


def map_singlecore(app: AppSpec) -> MappingPlan:
    """Map an application onto the single-core baseline."""
    app.validate()
    assignments = [CoreAssignment(core=0, phase=phase.name, replica=replica)
                   for phase in app.phases
                   for replica in range(phase.replicas)]

    section_banks: dict[str, int] = {}
    bank_fill = [app.runtime_words] + [0] * (IM_BANKS - 1)
    for section in distinct_sections(app):
        for bank, fill in enumerate(bank_fill):
            if fill + section.words <= IM_WORDS_PER_BANK:
                bank_fill[bank] = fill + section.words
                section_banks[section.name] = bank
                break
        else:
            raise MappingError(
                f"{app.name}: section {section.name!r} does not fit IM")

    return MappingPlan(
        app=app, multicore=False, assignments=assignments,
        section_banks=section_banks, sync_points_used=0,
        dm_footprint_words=dm_footprint(app))


def phase_streaming_load_mhz(phase: PhaseSpec, fs: float,
                             with_sync: bool) -> float:
    """Per-replica clock requirement of a streaming phase, in MHz."""
    if phase.trigger is not Trigger.STREAMING:
        return 0.0
    cycles = phase.cycles_per_sample
    if with_sync:
        cycles += phase.sync_ops_per_sample
    return cycles * fs / 1e6


def plan_required_mhz(plan: MappingPlan, with_sync: bool = True) -> float:
    """Worst per-core streaming clock requirement of a placement.

    The paper's policies put one phase replica on each core, so the
    requirement is simply the busiest streaming phase; placements that
    *coalesce* several phases onto one core (the search subsystem
    explores these) must clock that core for the **sum** of its
    streaming loads.  This is the mapping-aware sizing rule the
    behavioural simulator applies to every multi-core plan.

    Args:
        plan: a multi-core mapping plan.
        with_sync: include the executed sync instructions in the load
            (True for the proposed system, False for the no-sync
            strawman).

    Returns:
        The minimum system clock in MHz that keeps every core's
        streaming work real-time.
    """
    loads: dict[int, float] = {}
    app = plan.app
    for assignment in plan.assignments:
        phase = app.phase(assignment.phase)
        load = phase_streaming_load_mhz(phase, app.fs, with_sync)
        if load <= 0.0:
            continue
        loads[assignment.core] = loads.get(assignment.core, 0.0) + load
    return max(loads.values()) if loads else 0.0
