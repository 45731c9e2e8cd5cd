"""The feasibility oracle of the search-space tests.

:func:`violations` lists every constraint a candidate breaks, checked
without simulation; the ``repair`` and ``propose`` tests hold their
results to it.
"""

from __future__ import annotations

from repro.apps.mapping import distinct_sections
from repro.apps.phases import AppSpec
from repro.isa.layout import IM_BANKS, IM_WORDS_PER_BANK
from repro.search.space import Candidate, slot_phases


def _bank_fill(app: AppSpec, banks: dict[str, int]) -> list[int]:
    """Words per bank under a section->bank map (runtime in bank 0)."""
    fill = [0] * IM_BANKS
    fill[0] = app.runtime_words
    for section in distinct_sections(app):
        bank = banks.get(section.name)
        if bank is not None and 0 <= bank < IM_BANKS:
            fill[bank] += section.words
    return fill


def violations(app: AppSpec, candidate: Candidate,
               num_cores: int = 8) -> list[str]:
    """Every constraint a candidate breaks.

    Checks slot count, core ranges, same-phase replicas on distinct
    cores, the section set, bank ranges and bank capacities.  An
    empty list means the candidate is feasible.

    Returns:
        Human-readable violation messages (empty when feasible).
    """
    problems: list[str] = []
    phases = slot_phases(app)
    if len(candidate.cores) != len(phases):
        problems.append(
            f"{len(candidate.cores)} core slots for {len(phases)} "
            f"phase replicas")
        return problems
    used: dict[str, set[int]] = {}
    for name, core in zip(phases, candidate.cores):
        if not 0 <= core < num_cores:
            problems.append(f"core {core} outside 0..{num_cores - 1}")
        if core in used.setdefault(name, set()):
            problems.append(
                f"phase {name!r} has two replicas on core {core}")
        used[name].add(core)
    wanted = {section.name for section in distinct_sections(app)}
    got = {name for name, _ in candidate.section_banks}
    if wanted != got:
        problems.append(
            f"section set mismatch: missing {sorted(wanted - got)}, "
            f"extra {sorted(got - wanted)}")
        return problems
    for name, bank in candidate.section_banks:
        if not 0 <= bank < IM_BANKS:
            problems.append(
                f"section {name!r} on bank {bank} outside "
                f"0..{IM_BANKS - 1}")
            return problems
    fill = _bank_fill(app, candidate.bank_of())
    for bank, words in enumerate(fill):
        if words > IM_WORDS_PER_BANK:
            problems.append(
                f"bank {bank} holds {words} words "
                f"(> {IM_WORDS_PER_BANK})")
    return problems
