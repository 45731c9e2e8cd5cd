"""Multi-node WBSN network simulation above the single-node stack.

The paper reproduces *one* sensor node (``repro.isa`` → ``repro.hw`` →
``repro.sysc``); this package simulates *fleets* of such nodes with
drifting local clocks, a beacon radio, pluggable inter-node time-sync
protocols and a sharded multiprocessing runner:

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
  :mod:`repro.eval.report`.
"""

from .appsource import (
    AppBinding,
    AppSource,
    BenchmarkSource,
    GeneratedSuiteSource,
    MixedSource,
    source_from_mapping,
)
from .clock import ClockSpec, LocalClock
from .compute import (
    COMPUTE_CACHE_ENV,
    COMPUTE_ENTRY_SCHEMA,
    ComputeCache,
    ComputeRequest,
    ComputeResolution,
    ComputeResolver,
    ComputeSettings,
    ComputeSummary,
    ResolvedCompute,
)
from .fleet import (
    DEFAULT_DURATION_S,
    DEFAULT_SEED,
    FleetConfig,
    FleetResult,
    FleetRunner,
    run_fleet,
)
from .hierarchy import (
    BODY_NETWORKS,
    HIERARCHIES,
    MEGA_CAMPUS,
    WARD_CAMPUS,
    HierarchySpec,
    Tier,
    get_hierarchy,
    hierarchy_token,
    hop_error_samples,
    parse_hierarchy,
)
from .node import (
    APPS,
    ERROR_SAMPLE_HZ,
    REFERENCE_NODE_ID,
    NetworkNode,
    NodeResult,
    build_node,
)
from .radio import (
    Beacon,
    RadioEnergy,
    RadioSpec,
    Reception,
    beacon_schedule,
    receive_beacons,
)
from .scenarios import (
    DENSE_WARD,
    DRIFTING_WEARABLES,
    GENERATED_SWARM,
    INTERMITTENT_HARVESTING,
    MIXED_CLINIC,
    SCENARIOS,
    Scenario,
    generated_scenario,
    get_scenario,
    parse_scenario,
    scenario_token,
    with_protocol,
)
from .stats import FleetSummary, GroupStats, SyncError, TierSummary
from .streaming import (
    CHECKPOINT_SCHEMA,
    DEFAULT_WAVE_SUBTREES,
    HierarchyResult,
    StreamingConfig,
    StreamingRunner,
    run_streaming,
)
from .timesync import PROTOCOLS, sync_replay

__all__ = [
    "APPS",
    "AppBinding",
    "AppSource",
    "BODY_NETWORKS",
    "Beacon",
    "BenchmarkSource",
    "CHECKPOINT_SCHEMA",
    "COMPUTE_CACHE_ENV",
    "COMPUTE_ENTRY_SCHEMA",
    "ClockSpec",
    "ComputeCache",
    "ComputeRequest",
    "ComputeResolution",
    "ComputeResolver",
    "ComputeSettings",
    "ComputeSummary",
    "DEFAULT_DURATION_S",
    "DEFAULT_SEED",
    "DEFAULT_WAVE_SUBTREES",
    "DENSE_WARD",
    "DRIFTING_WEARABLES",
    "ERROR_SAMPLE_HZ",
    "FleetConfig",
    "FleetResult",
    "FleetRunner",
    "FleetSummary",
    "GENERATED_SWARM",
    "GeneratedSuiteSource",
    "GroupStats",
    "HIERARCHIES",
    "HierarchyResult",
    "HierarchySpec",
    "INTERMITTENT_HARVESTING",
    "LocalClock",
    "MEGA_CAMPUS",
    "MIXED_CLINIC",
    "MixedSource",
    "NetworkNode",
    "NodeResult",
    "PROTOCOLS",
    "REFERENCE_NODE_ID",
    "RadioEnergy",
    "RadioSpec",
    "Reception",
    "ResolvedCompute",
    "SCENARIOS",
    "Scenario",
    "StreamingConfig",
    "StreamingRunner",
    "SyncError",
    "Tier",
    "TierSummary",
    "WARD_CAMPUS",
    "beacon_schedule",
    "build_node",
    "generated_scenario",
    "get_hierarchy",
    "get_scenario",
    "hierarchy_token",
    "hop_error_samples",
    "parse_hierarchy",
    "parse_scenario",
    "receive_beacons",
    "run_fleet",
    "run_streaming",
    "scenario_token",
    "source_from_mapping",
    "sync_replay",
    "with_protocol",
]
