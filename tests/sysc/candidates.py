"""Seeded placement sampler for the engine's differential tests.

:func:`sample_candidates` draws distinct feasible placements of one
application: the search's start policies first, then a seeded
mutation walk.  ``test_differential.py`` picks coalesced placements
(phases sharing a core) from them to hold ``simulate()`` to the tick
loop off the policies' own placements.
"""

import random

from repro.apps.mapping import MappingError
from repro.gen.policies import get_policy
from repro.isa.layout import ImGeometry
from repro.search.anneal import START_POLICIES
from repro.search.space import Candidate, candidate_from_plan, propose


def sample_candidates(app, num_cores=8, samples=6, seed=0,
                      geometry=None) -> list[Candidate]:
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
