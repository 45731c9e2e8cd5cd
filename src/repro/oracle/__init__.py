"""repro.oracle — vectorised analytic cost model.

:func:`repro.sysc.engine.simulate` scores one mapping per call.  The
policy explorer (:func:`repro.gen.explorer.screen_policies`) ranks a
whole population of placements first and simulates only the best, so
it needs a batched scorer:

- :mod:`repro.oracle.model` — :class:`AnalyticModel`, a closed-form,
  numpy-vectorised reduction of ``simulate()`` that scores whole
  populations of :class:`repro.search.space.Candidate` mappings per
  call (batched clock floor, duty cycle, power, sync overhead),
  byte-deterministic and exact up to float associativity, plus
  :func:`sample_candidates`, the seeded placement sampler its tests
  compare against ``simulate()`` on.
"""

from .model import (
    AnalyticModel,
    PopulationScores,
    sample_candidates,
    score_population,
)

__all__ = [
    "AnalyticModel",
    "PopulationScores",
    "sample_candidates",
    "score_population",
]
