"""Declarative coverage over the generated-workload space.

The generator (:mod:`repro.gen`) can draw an unbounded population of
applications, but blind sampling says nothing about what the
population never exercised — the deep chains, wide fan-ins and
section-sharing diamonds where the paper's mapping policies and sync
methodology actually diverge.  This package closes that loop the way
hardware-verification coverage does:

* :mod:`repro.cover.model` declares the coverage *bins* — the cross
  product of topology family x stage-depth band x max-fan-in band x
  section-sharing x mapping-policy outcome x replica-band, pruned to
  the structurally reachable per-family combinations — plus four
  named adversarial coverpoints (deep-chain, wide-fan-in,
  diamond-shared, triggered-subgraph).  A :class:`CoverageMap`
  classifies every ``(AppSpec, ExplorationRecord)`` pair into a
  deterministic bin key and tracks hit counts, first-hitting tokens
  and the uncovered remainder.
* :mod:`repro.cover.fuzz` is the seeded fuzz loop: it repeatedly
  picks an uncovered bin, derives adversarial
  :class:`~repro.gen.topology.Shape` knobs that steer ``random-dag``
  generation toward it, and evaluates the resulting token through
  the screened explorer until the budget or a saturation window is
  exhausted.  An untargeted twin (:func:`random_campaign`) provides
  the baseline the regression tests compare against.

Everything is a pure function of the campaign parameters — bin keys
are plain strings, ordering is declaration order, and every random
draw flows through one SHA-256-derived stream — so the
``repro-cover/1`` artifact is byte-identical across processes and
``PYTHONHASHSEED`` values.
"""

from .fuzz import fuzz_campaign, random_campaign

__all__ = ["fuzz_campaign", "random_campaign"]
