"""Stochastic mapping search over section->bank and phase->core maps.

The paper's Table I rests on one hand-crafted dedicated-bank
placement; this package answers "how far from optimal is it?" by
searching the placement space with seeded, byte-deterministic
stochastic walks:

* :mod:`repro.search.space` — the candidate representation, the
  analytic feasibility pre-filter, the deterministic repair moves for
  IM-overflow and core collisions, and the mutation proposals;
* :mod:`repro.search.cost` — pluggable cost oracles (power, clock
  floor, weighted composite) over ``simulate(mapping=...)``;
* :mod:`repro.search.anneal` — the simulated-annealing and greedy
  hill-climb drivers plus the :class:`SearchOutcome` record.

Entry points elsewhere: the ``search-anneal`` / ``search-greedy``
policy family in :data:`repro.gen.policies.POLICIES`, the ``search``
run family in :mod:`repro.sweep.runners`, the ``python -m repro.eval
search`` subcommand (``repro-search/1`` artifacts) and
``benchmarks/bench_search.py``.

The package imports none of its modules: fleets key placements through
:mod:`repro.search.space` alone, without the search drivers.
"""
