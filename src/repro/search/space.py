"""The placement search space: candidates, repair moves, proposals.

A :class:`Candidate` is one point of the space the stochastic search
walks: a section->bank map plus a phase-replica->core assignment, both
in canonical form so candidates hash, deduplicate and serialise
deterministically.  The module provides everything the annealer needs
short of a cost:

* :func:`candidate_from_plan` / :func:`plan_from_candidate` convert to
  and from the :class:`~repro.apps.mapping.MappingPlan` the simulator
  consumes, so every mapping policy's output is a legal start point;
* :func:`repair` applies the deterministic repair moves (IM-overflow
  sections migrate to the least-filled fitting bank, colliding
  replicas move to the lowest free core) that turn most infeasible
  mutations back into legal candidates;
* :func:`propose` draws one mutated, repaired, normalised neighbour
  from a seeded RNG.

Unlike the paper's one-replica-per-core policies, candidates may
coalesce several phases onto one core — trading core leakage against
the higher clock (and voltage) the shared core then needs.  The
behavioural simulator prices that honestly through
:func:`repro.apps.mapping.plan_required_mhz`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.mapping import (
    CoreAssignment,
    MappingPlan,
    distinct_sections,
    dm_footprint,
    least_filled_bank,
    sync_points,
)
from ..apps.phases import AppSpec
from ..isa.layout import IM_BANKS, IM_WORDS_PER_BANK

#: Mutation kinds, repeated to weight the draw (section moves dominate
#: because the bank map is the larger sub-space).
_MOVES = ("section", "section", "section", "swap", "core", "core",
          "spread")


@dataclass(frozen=True)
class Candidate:
    """One point of the placement search space (canonical form).

    Attributes:
        section_banks: ``(section name, IM bank)`` pairs sorted by
            section name.
        cores: core id per canonical slot; slot ``i`` is the ``i``-th
            ``(phase, replica)`` pair in app phase order, replicas
            ascending.  Core ids are normalised to first-use order, so
            placements differing only by a core permutation compare
            equal.
    """

    section_banks: tuple[tuple[str, int], ...]
    cores: tuple[int, ...]

    def bank_of(self) -> dict[str, int]:
        """The section->bank map as a plain dict."""
        return dict(self.section_banks)

    def key(self) -> str:
        """Stable identity string (memoisation / dedup key)."""
        banks = ",".join(f"{name}={bank}"
                         for name, bank in self.section_banks)
        cores = ",".join(str(core) for core in self.cores)
        return f"b[{banks}]c[{cores}]"


def slot_phases(app: AppSpec) -> list[str]:
    """Phase name of every canonical slot, in slot order."""
    return [phase.name for phase in app.phases
            for _ in range(phase.replicas)]


def normalize_cores(cores: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel core ids in first-use order (0, 1, 2, ...)."""
    labels: dict[int, int] = {}
    out = []
    for core in cores:
        if core not in labels:
            labels[core] = len(labels)
        out.append(labels[core])
    return tuple(out)


def make_candidate(section_banks: dict[str, int],
                   cores: tuple[int, ...] | list[int]) -> Candidate:
    """Build a candidate in canonical form.

    Args:
        section_banks: section name -> IM bank.
        cores: core id per canonical slot.

    Returns:
        The candidate with sections sorted and cores normalised.
    """
    return Candidate(
        section_banks=tuple(sorted(section_banks.items())),
        cores=normalize_cores(tuple(cores)),
    )


def candidate_from_plan(plan: MappingPlan) -> Candidate:
    """The canonical candidate of a multi-core mapping plan.

    Raises:
        ValueError: single-core plan, or a slot without an assignment.
    """
    if not plan.multicore:
        raise ValueError("search candidates are multi-core placements")
    by_slot = {(assignment.phase, assignment.replica): assignment.core
               for assignment in plan.assignments}
    cores = []
    for phase in plan.app.phases:
        for replica in range(phase.replicas):
            try:
                cores.append(by_slot[(phase.name, replica)])
            except KeyError:
                raise ValueError(
                    f"plan misses a core for ({phase.name!r}, "
                    f"{replica})") from None
    return make_candidate(plan.section_banks, cores)


def plan_from_candidate(app: AppSpec, candidate: Candidate) -> MappingPlan:
    """The mapping plan a candidate describes (for the simulator)."""
    assignments = []
    slot = 0
    for phase in app.phases:
        for replica in range(phase.replicas):
            assignments.append(CoreAssignment(
                core=candidate.cores[slot], phase=phase.name,
                replica=replica))
            slot += 1
    return MappingPlan(
        app=app, multicore=True, assignments=assignments,
        section_banks=candidate.bank_of(),
        sync_points_used=sync_points(app),
        dm_footprint_words=dm_footprint(app))


def candidate_to_mapping(candidate: Candidate) -> dict:
    """Canonical JSON-ready form of a candidate (artifact substrate)."""
    return {
        "section_banks": {name: bank
                          for name, bank in candidate.section_banks},
        "cores": list(candidate.cores),
    }


def repair(app: AppSpec, candidate: Candidate,
           num_cores: int = 8) -> Candidate | None:
    """Apply the deterministic repair moves to a broken candidate.

    Core repairs: out-of-range cores and same-phase collisions move to
    the lowest in-range core the phase does not already use.  Bank
    repairs: out-of-range banks re-place best-fit; overflowing banks
    (lowest id first) shed their smallest section to the least-filled
    other bank that fits.

    Returns:
        A feasible candidate, or ``None`` when the overflow cannot be
        shed (the application genuinely does not fit the IM) or a
        phase has more replicas than cores.
    """
    phases = slot_phases(app)
    if len(candidate.cores) != len(phases):
        return None

    cores = list(candidate.cores)
    used: dict[str, set[int]] = {}
    for index, (name, core) in enumerate(zip(phases, cores)):
        taken = used.setdefault(name, set())
        if not 0 <= core < num_cores or core in taken:
            free = [c for c in range(num_cores) if c not in taken]
            if not free:
                return None  # more replicas than cores: app-level fix
            core = free[0]
            cores[index] = core
        taken.add(core)

    sizes = {section.name: section.words
             for section in distinct_sections(app)}
    banks = candidate.bank_of()
    if set(banks) != set(sizes):
        return None  # wrong section set: not a candidate for this app
    fill = [0] * IM_BANKS
    fill[0] = app.runtime_words
    for name in sorted(banks):
        if not 0 <= banks[name] < IM_BANKS:
            banks[name] = -1  # re-place below
        else:
            fill[banks[name]] += sizes[name]
    for name in sorted(banks):
        if banks[name] >= 0:
            continue
        bank = least_filled_bank(fill, sizes[name])
        if bank is None:
            return None
        banks[name] = bank
        fill[bank] += sizes[name]
    for bank in range(IM_BANKS):
        while fill[bank] > IM_WORDS_PER_BANK:
            movable = sorted(
                (sizes[name], name) for name, where in banks.items()
                if where == bank)
            moved = False
            for words, name in movable:
                target = least_filled_bank(fill, words, exclude=bank)
                if target is not None:
                    banks[name] = target
                    fill[bank] -= words
                    fill[target] += words
                    moved = True
                    break
            if not moved:
                return None  # nothing sheds: the app does not fit
    return make_candidate(banks, cores)


def propose(app: AppSpec, candidate: Candidate, rng,
            num_cores: int = 8) -> Candidate | None:
    """Draw one mutated, repaired, normalised neighbour.

    Moves: relocate a section to a random bank, swap two sections'
    banks, move a phase replica to a random core, or spread a replica
    from a shared core onto a free one.  The mutation is repaired
    before it is returned; irreparable mutations yield ``None`` (the
    caller counts them and never simulates them).

    Args:
        app: the application being placed.
        candidate: the current candidate.
        rng: a seeded ``random.Random`` (all stochastic choices draw
            from it, keeping the walk deterministic).
        num_cores: provisioned platform width.
    """
    banks = candidate.bank_of()
    cores = list(candidate.cores)
    sections = sorted(banks)
    move = rng.choice(_MOVES)
    if move == "swap" and len(sections) < 2:
        move = "section"
    if move == "spread":
        shared = [index for index, core in enumerate(cores)
                  if cores.count(core) > 1]
        free = [core for core in range(num_cores)
                if core not in set(cores)]
        if shared and free:
            cores[rng.choice(shared)] = free[0]
        else:
            move = "core"
    if move == "section":
        name = rng.choice(sections)
        banks[name] = rng.randrange(IM_BANKS)
    elif move == "swap":
        first, second = rng.sample(sections, 2)
        banks[first], banks[second] = banks[second], banks[first]
    elif move == "core":
        slot = rng.randrange(len(cores))
        cores[slot] = rng.randrange(num_cores)
    return repair(app, make_candidate(banks, cores), num_cores)
