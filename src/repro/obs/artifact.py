"""The versioned ``repro-metrics/1`` artifact.

Schema::

    {
      "schema": "repro-metrics/1",
      "experiment": "net",                      # CLI subcommand ("" ok)
      "counters": {"engine.ticks": 27000, ...}, # ints, deterministic
      "gauges": {"net.stream.wave_size": 32.0}, # floats, deterministic
      "timings": {                              # wall-clock, excluded
        "net.stream.run": {"count": 1,          # from determinism
                           "total_s": 0.41,     # comparisons
                           "max_s": 0.41}
      }
    }

``counters`` and ``gauges`` are byte-deterministic across
PYTHONHASHSEED values, worker counts and resume points; ``timings``
are machine noise by definition.  ``tools/metrics_report.py strip``
writes the comparable form the CI determinism step ``cmp``\\ s.
"""

from __future__ import annotations

from pathlib import Path

from ..store import write_json
from .registry import MetricsRegistry

#: Schema tag of the metrics artifact (bump on incompatible changes).
METRICS_SCHEMA = "repro-metrics/1"


def metrics_payload(
    registry: MetricsRegistry, experiment: str = ""
) -> dict:
    """The artifact payload of one collected run."""
    snapshot = registry.snapshot()
    return {
        "schema": METRICS_SCHEMA,
        "experiment": experiment,
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "timings": snapshot["timings"],
    }


def write_metrics_json(
    registry: MetricsRegistry,
    path: str | Path,
    experiment: str = "",
) -> Path:
    """Write the metrics artifact; returns its path."""
    return write_json(path, metrics_payload(registry, experiment))
