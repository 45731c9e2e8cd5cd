"""repro.obs — unified metrics/tracing for every layer.

A lightweight hierarchical instrumentation registry with a zero-cost
no-op default: hot paths call :func:`add` / :func:`gauge` /
:func:`span` unconditionally, and nothing is collected (or even
allocated) until a run opts in via :func:`collecting` — which is what
the ``python -m repro.eval ... --metrics`` flag does.  See
``docs/observability.md`` for the API, the dotted naming conventions
and the merge/determinism semantics.

Imports nothing from the rest of :mod:`repro` (stdlib only), so any
layer may instrument itself without dependency cycles.
"""

from .artifact import (
    METRICS_SCHEMA,
    metrics_payload,
    write_metrics_json,
)
from .registry import (
    MetricsRegistry,
    Span,
    activate,
    active,
    add,
    collecting,
    counter_delta,
    deactivate,
    gauge,
    observe,
    span,
    suspended,
)
from .render import render_metrics

__all__ = [
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "Span",
    "activate",
    "active",
    "add",
    "collecting",
    "counter_delta",
    "deactivate",
    "gauge",
    "metrics_payload",
    "observe",
    "render_metrics",
    "span",
    "suspended",
    "write_metrics_json",
]
