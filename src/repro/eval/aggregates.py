"""Deterministic aggregate statistics for population-scale reports.

Generated-app campaigns grow into the hundreds of points; per-point
tables stop scaling, so the renderers summarise populations with the
helpers here.  Everything is plain float arithmetic over sorted
copies — no NumPy, no RNG — so summaries are byte-deterministic and
safe inside the byte-identical artifact guarantee.
"""

from __future__ import annotations

__all__ = ["MAX_ROWS", "percentile", "summary_stats"]

#: Per-point rows a population report shows before eliding the rest.
MAX_ROWS = 48


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation.

    Args:
        values: sample (any order; not mutated).
        q: percentile in ``[0, 100]``.

    Raises:
        ValueError: empty sample or ``q`` outside ``[0, 100]``.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def summary_stats(values: list[float]) -> dict[str, float]:
    """Five-point summary of a sample: count/min/p50/p90/max/mean.

    Returns:
        ``{"count", "min", "p50", "p90", "max", "mean"}`` — all zeros
        when the sample is empty (artifact-friendly: the shape never
        changes).
    """
    if not values:
        return {"count": 0, "min": 0.0, "p50": 0.0, "p90": 0.0,
                "max": 0.0, "mean": 0.0}
    return {
        "count": len(values),
        "min": float(min(values)),
        "p50": percentile(values, 50.0),
        "p90": percentile(values, 90.0),
        "max": float(max(values)),
        "mean": sum(values) / len(values),
    }
