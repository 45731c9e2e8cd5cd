"""Mapping policies the explorer compares.

The paper prescribes one multi-core placement (Sec. III-B step 3,
:func:`repro.apps.mapping.map_multicore`): every distinct non-head
code section gets a *dedicated* IM bank.  That maximises conflict
freedom but burns leakage on sparsely filled banks and rejects any
application with more sections than banks.  The generated-workload
space is exactly where those trade-offs bite, so two additional
heuristics join the paper policy and the single-core baseline:

* ``balanced`` — load-levelled packing: sections sorted by size land
  in the *least-filled* bank that fits, evening out IM pressure.
  Maps section-heavy apps the paper policy rejects (banks may be
  shared when they must be) while keeping per-bank contention low.
* ``critical-path`` — phases are placed in order of their critical
  path (cycles along the longest downstream producer-consumer chain):
  the heaviest chain's head shares bank 0 with the runtime (the
  broadcast-friendly slot), subsequent sections take dedicated banks
  while they last, then fall back to best-fit instead of failing.
* ``search-greedy`` / ``search-anneal`` — the stochastic placement
  search of :mod:`repro.search`, seeded per app from its content
  fingerprint so the family stays a pure (and cacheable) function of
  the application; reports how much headroom the fixed heuristics
  leave on the table.

Every policy is a pure ``(app, num_cores, geometry) -> MappingPlan``
function; single-core is the odd one out (it ignores ``num_cores``
and pairs with the baseline execution mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..apps.mapping import (
    CoreAssignment,
    MappingError,
    MappingPlan,
    distinct_sections,
    dm_footprint,
    map_multicore,
    map_singlecore,
    sync_points,
)
from ..apps.phases import AppSpec
from ..isa.layout import ImGeometry
from .generator import app_fingerprint, derive_seed

#: Signature every mapper implements.
Mapper = Callable[[AppSpec, int, "ImGeometry | None"], MappingPlan]


@dataclass(frozen=True)
class MappingPolicy:
    """One placement heuristic the explorer can apply.

    Attributes:
        name: registry key.
        multicore: pairs with the multi-core execution mode (False
            for the single-core baseline).
        mapper: the placement function.
        description: one-line summary for reports.
    """

    name: str
    multicore: bool
    mapper: Mapper
    description: str

    def map(self, app: AppSpec, num_cores: int = 8,
            geometry: ImGeometry | None = None) -> MappingPlan:
        """Apply the policy.

        Args:
            app: the application to place.
            num_cores: provisioned platform width (ignored by the
                single-core baseline).
            geometry: IM geometry (platform default when omitted).

        Returns:
            The placement as a simulator-ready mapping plan.

        Raises:
            repro.apps.mapping.MappingError: the app does not fit.
        """
        return self.mapper(app, num_cores, geometry)


def _replica_assignments(app: AppSpec, num_cores: int,
                         phase_order: list[int] | None = None
                         ) -> list[CoreAssignment]:
    """One core per replica, phases placed in ``phase_order``."""
    order = phase_order if phase_order is not None \
        else list(range(len(app.phases)))
    assignments: list[CoreAssignment] = []
    next_core = 0
    for phase_index in order:
        phase = app.phases[phase_index]
        for replica in range(phase.replicas):
            if next_core >= num_cores:
                raise MappingError(
                    f"{app.name} needs more than {num_cores} cores")
            assignments.append(CoreAssignment(
                core=next_core, phase=phase.name, replica=replica))
            next_core += 1
    return assignments


def _best_fit_bank(bank_fill: list[int], words: int,
                   capacity: int) -> int | None:
    """Least-filled bank that still fits ``words`` (ties: lowest id)."""
    best: int | None = None
    for bank, fill in enumerate(bank_fill):
        if fill + words > capacity:
            continue
        if best is None or fill < bank_fill[best]:
            best = bank
    return best


def map_balanced(app: AppSpec, num_cores: int = 8,
                 geometry: ImGeometry | None = None) -> MappingPlan:
    """Load-levelled IM packing with one core per replica."""
    app.validate()
    geom = geometry or ImGeometry()
    assignments = _replica_assignments(app, num_cores)
    bank_fill = [app.runtime_words] + [0] * (geom.banks - 1)
    section_banks: dict[str, int] = {}
    ordered = sorted(distinct_sections(app),
                     key=lambda section: (-section.words, section.name))
    for section in ordered:
        bank = _best_fit_bank(bank_fill, section.words,
                              geom.words_per_bank)
        if bank is None:
            raise MappingError(
                f"{app.name}: section {section.name!r} does not fit IM")
        bank_fill[bank] += section.words
        section_banks[section.name] = bank
    return MappingPlan(
        app=app, multicore=True, assignments=assignments,
        section_banks=section_banks, sync_points_used=sync_points(app),
        dm_footprint_words=dm_footprint(app))


def critical_path_weights(app: AppSpec) -> dict[str, float]:
    """Per-phase critical-path weight over the channel DAG.

    The weight of a phase is its own cycle intensity plus the largest
    weight among its consumers — the classic longest-downstream-chain
    metric list schedulers prioritise by.
    """
    consumers: dict[str, list[str]] = {phase.name: []
                                       for phase in app.phases}
    for channel in app.channels:
        for producer in channel.producers:
            consumers[producer].append(channel.consumer)

    weights: dict[str, float] = {}

    def weight(name: str, trail: tuple[str, ...] = ()) -> float:
        if name in weights:
            return weights[name]
        if name in trail:
            raise MappingError(
                f"{app.name}: channel cycle through {name!r}")
        downstream = [weight(consumer, trail + (name,))
                      for consumer in consumers[name]]
        phase = app.phase(name)
        weights[name] = phase.cycles_per_sample + \
            (max(downstream) if downstream else 0.0)
        return weights[name]

    for phase in app.phases:
        weight(phase.name)
    return weights


def map_critical_path(app: AppSpec, num_cores: int = 8,
                      geometry: ImGeometry | None = None) -> MappingPlan:
    """Critical-path-first placement with graceful bank fallback."""
    app.validate()
    geom = geometry or ImGeometry()
    weights = critical_path_weights(app)
    order = sorted(
        range(len(app.phases)),
        key=lambda index: (-weights[app.phases[index].name], index))
    assignments = _replica_assignments(app, num_cores, phase_order=order)

    bank_fill = [app.runtime_words] + [0] * (geom.banks - 1)
    section_banks: dict[str, int] = {}
    next_bank = 0
    for position, phase_index in enumerate(order):
        for section in app.phases[phase_index].sections:
            if section.name in section_banks:
                continue
            if position == 0:
                bank: int | None = 0  # hottest chain shares bank 0
            elif next_bank + 1 < geom.banks:
                next_bank += 1
                bank = next_bank
            else:  # dedicated banks exhausted: pack instead of failing
                bank = _best_fit_bank(bank_fill, section.words,
                                      geom.words_per_bank)
            if bank is None or (bank_fill[bank] + section.words
                                > geom.words_per_bank):
                bank = _best_fit_bank(bank_fill, section.words,
                                      geom.words_per_bank)
            if bank is None:
                raise MappingError(
                    f"{app.name}: section {section.name!r} does not "
                    f"fit IM")
            bank_fill[bank] += section.words
            section_banks[section.name] = bank
    return MappingPlan(
        app=app, multicore=True, assignments=assignments,
        section_banks=section_banks, sync_points_used=sync_points(app),
        dm_footprint_words=dm_footprint(app))


#: Proposal budget of the search-backed policy family (kept modest:
#: the explorer pays one full-length simulation per record on top of
#: the oracle calls the search itself makes).
SEARCH_POLICY_ITERATIONS = 24

#: Simulated seconds per oracle call inside the policy family.
SEARCH_POLICY_DURATION_S = 1.0


def _search_mapper(algorithm: str) -> Mapper:
    """A mapper that searches for its placement (seeded per app)."""

    def mapper(app: AppSpec, num_cores: int = 8,
               geometry: ImGeometry | None = None) -> MappingPlan:
        # Deferred import: repro.search builds on this module.
        from ..search.anneal import search_mapping

        seed = derive_seed("search-policy", algorithm,
                           app_fingerprint(app), num_cores)
        outcome = search_mapping(
            app, num_cores=num_cores, geometry=geometry,
            algorithm=algorithm,
            iterations=SEARCH_POLICY_ITERATIONS,
            duration_s=SEARCH_POLICY_DURATION_S, seed=seed)
        if outcome.best_plan is None:
            raise MappingError(
                outcome.error
                or f"{app.name}: no feasible placement found")
        return outcome.best_plan

    return mapper


def _paper_mapper(app: AppSpec, num_cores: int,
                  geometry: ImGeometry | None) -> MappingPlan:
    return map_multicore(app, num_cores, geometry)


def _singlecore_mapper(app: AppSpec, num_cores: int,
                       geometry: ImGeometry | None) -> MappingPlan:
    return map_singlecore(app, geometry)


#: Policy registry, in report order.
POLICIES: dict[str, MappingPolicy] = {
    "paper": MappingPolicy(
        name="paper", multicore=True, mapper=_paper_mapper,
        description="the paper's dedicated-bank multi-core placement"),
    "single-core": MappingPolicy(
        name="single-core", multicore=False, mapper=_singlecore_mapper,
        description="single-core baseline (first-fit packed IM)"),
    "balanced": MappingPolicy(
        name="balanced", multicore=True, mapper=map_balanced,
        description="load-levelled IM packing (least-filled bank)"),
    "critical-path": MappingPolicy(
        name="critical-path", multicore=True, mapper=map_critical_path,
        description="critical-path-first placement with bank fallback"),
    "search-greedy": MappingPolicy(
        name="search-greedy", multicore=True,
        mapper=_search_mapper("greedy"),
        description="greedy hill-climb over section/core placements"),
    "search-anneal": MappingPolicy(
        name="search-anneal", multicore=True,
        mapper=_search_mapper("anneal"),
        description="simulated-annealing placement search"),
}


def get_policy(name: str) -> MappingPolicy:
    """Look up a mapping policy.

    Raises:
        ValueError: unknown policy name.
    """
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown mapping policy {name!r}; choose from "
            f"{list(POLICIES)}"
        ) from None
