"""Synthetic workload generation + mapping-policy exploration.

The paper validates its synchronization methodology on three
hand-calibrated ECG applications; this package widens that to an
unbounded, *seeded* population: :mod:`repro.gen.topology` draws task
graphs from five structural families, :mod:`repro.gen.generator`
fleshes them into valid :class:`~repro.apps.phases.AppSpec` instances
with workload knobs anchored to the kernel characterisation, and
:mod:`repro.gen.explorer` runs each one through the mapping policies
of :mod:`repro.gen.policies` (the paper's placement, the single-core
baseline, and two new heuristics) on the behavioural simulator.

Generation is a pure function of ``(family, seed, index)`` — byte
identical across processes and ``PYTHONHASHSEED`` values — so
generated apps ride through the sweep cache, the CLI and the
benchmark harness exactly like the paper's fixed benchmarks.
"""

from .explorer import evaluate_app, evaluate_token, explore, repair_app
from .generator import (
    app_fingerprint,
    app_from_token,
    app_to_mapping,
    app_token,
    generate_app,
    generate_suite,
    parse_app_token,
    suite_tokens,
)
from .policies import (
    POLICIES,
    critical_path_weights,
    get_policy,
    map_balanced,
    map_critical_path,
)
from .topology import FAMILY_ORDER

__all__ = [
    "FAMILY_ORDER",
    "POLICIES",
    "app_fingerprint",
    "app_from_token",
    "app_to_mapping",
    "app_token",
    "critical_path_weights",
    "evaluate_app",
    "evaluate_token",
    "explore",
    "generate_app",
    "generate_suite",
    "get_policy",
    "map_balanced",
    "map_critical_path",
    "parse_app_token",
    "repair_app",
    "suite_tokens",
]
