"""Multi-node WBSN network simulation above the single-node stack.

The paper reproduces *one* sensor node (``repro.isa`` → ``repro.hw`` →
``repro.sysc``); this package simulates *fleets* of such nodes with
drifting local clocks, a beacon radio, pluggable inter-node time-sync
protocols and a runner sharded over forked processes:

* :mod:`repro.net.appsource` — pluggable per-node application
  sources (benchmarks / generated suites / weighted mixes).
* :mod:`repro.net.clock` — per-node oscillators (drift / jitter /
  power-loss resets).
* :mod:`repro.net.radio` — beacon delivery and per-message energy.
* :mod:`repro.net.timesync` — the array sync replay of the
  none / reference-broadcast / FTSP-style offset+skew protocols.
* :mod:`repro.net.node` — clock + radio + a mapped ECG application.
* :mod:`repro.net.compute` — the deduplicating, content-addressed
  compute cache fleets resolve app power through.
* :mod:`repro.net.fleet` — deterministic serial/parallel execution.
* :mod:`repro.net.scenarios` — named deployment presets.
* :mod:`repro.net.hierarchy` — cluster→gateway→backbone tiers with
  per-tier protocols and error compounding across hops.
* :mod:`repro.net.streaming` — checkpointed bounded-memory waves for
  mega-fleets (10k–1M nodes), one array pass per subtree tier.
* :mod:`repro.net.stats` — summary dataclasses shared with
  :mod:`repro.eval.netexp`.

Importing the package loads every module a fleet or streaming run
executes, so no run imports code part-way (see "Import layering" in
``docs/architecture.md``).  The names below are the ones imported
from the package; everything else is imported from its module.
"""

from .fleet import run_fleet
from .hierarchy import parse_hierarchy
from .node import ERROR_SAMPLE_HZ, REFERENCE_NODE_ID, build_node
from .scenarios import parse_scenario
from .stats import SyncError
from .streaming import run_streaming

__all__ = [
    "ERROR_SAMPLE_HZ",
    "REFERENCE_NODE_ID",
    "SyncError",
    "build_node",
    "parse_hierarchy",
    "parse_scenario",
    "run_fleet",
    "run_streaming",
]
