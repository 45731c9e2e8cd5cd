"""EXP-COVER: the coverage-driven fuzz campaign and its artifact.

``python -m repro.eval cover`` runs the seeded fuzz loop of
:mod:`repro.cover.fuzz` and emits the ``repro-cover/1`` artifact:
the declared dimensions, every covered bin with its hit count and
first-hitting token, the uncovered remainder, the adversarial
coverpoints, and the attempt log.  Like every experiment artifact,
the payload carries *only* deterministic fields — bin keys, tokens,
integer counts — so two runs of the same campaign are byte-identical
across processes, worker counts and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

from ..cover.fuzz import (
    COVER_BUDGET,
    COVER_CORES,
    COVER_DURATION_S,
    COVER_POLICIES,
    COVER_SATURATION,
    COVER_SEED,
    FuzzReport,
    fuzz_campaign,
    random_campaign,
)
from ..cover.model import ADVERSARIAL_POINTS, COVER_SCHEMA, DIMENSIONS
from ..store import write_json


def run_cover(seed: int = COVER_SEED, budget: int = COVER_BUDGET,
              saturation: int = COVER_SATURATION,
              policies: tuple[str, ...] = COVER_POLICIES,
              num_cores: int = COVER_CORES,
              duration_s: float = COVER_DURATION_S,
              targeted: bool = True) -> FuzzReport:
    """Run one coverage campaign (see :func:`fuzz_campaign`)."""
    if targeted:
        return fuzz_campaign(seed=seed, budget=budget,
                             saturation=saturation, policies=policies,
                             num_cores=num_cores, duration_s=duration_s)
    return random_campaign(seed=seed, budget=budget,
                           saturation=saturation, policies=policies,
                           num_cores=num_cores, duration_s=duration_s)


def cover_payload(report: FuzzReport) -> dict:
    """The deterministic ``repro-cover/1`` JSON document."""
    coverage = report.coverage
    covered = coverage.covered()
    return {
        "schema": COVER_SCHEMA,
        "mode": report.mode,
        "seed": report.seed,
        "budget": report.budget,
        "saturation": report.saturation,
        "policies": list(report.policies),
        "num_cores": report.num_cores,
        "duration_s": report.duration_s,
        "attempts": [asdict(attempt) for attempt in report.attempts],
        "dimensions": [
            {"name": dimension.name, "labels": list(dimension.labels)}
            for dimension in DIMENSIONS
        ],
        "total_bins": len(coverage.space),
        "covered": len(covered),
        "bins": {
            key: {"hits": coverage.hits(key),
                  "first_token": coverage.first_token(key)}
            for key in covered
        },
        "uncovered": coverage.uncovered(),
        "unexpected": {
            key: {"hits": coverage.hits(key),
                  "first_token": coverage.first_token(key)}
            for key in coverage.unexpected()
        },
        "adversarial": {
            name: {"hits": coverage.adversarial_hits()[name],
                   "first_token": coverage.adversarial_first(name)}
            for name in ADVERSARIAL_POINTS
        },
        "status_counts": {
            status: report.status_counts[status]
            for status in sorted(report.status_counts)
        },
        "saturated": report.saturated,
    }


def write_cover_json(report: FuzzReport, path: str | Path) -> Path:
    """Write the coverage artifact; returns its path."""
    return write_json(path, cover_payload(report))


__all__ = [
    "COVER_BUDGET",
    "COVER_CORES",
    "COVER_DURATION_S",
    "COVER_POLICIES",
    "COVER_SATURATION",
    "COVER_SEED",
    "cover_payload",
    "run_cover",
    "write_cover_json",
]
