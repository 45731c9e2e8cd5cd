"""EXP-SEARCH: how far from optimal is the paper's placement?

A seeded suite of synthetic applications (:mod:`repro.gen`) runs
through the stochastic placement search (:mod:`repro.search`); every
app reports the paper-policy cost, the best-found cost and the gap
between them (>= 0 by construction — the paper's placement seeds the
walk whenever it is feasible).

The JSON artifact (:func:`search_payload`, schema ``repro-search/1``)
contains *only* deterministic fields — identities, search parameters,
costs, canonical best candidates, aggregate summaries — never
wall-clock timing, so two runs of the same configuration produce
byte-identical files (the CLI acceptance check).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..gen.explorer import STATUS_OK, STATUS_REJECTED, STATUS_REPAIRED
from ..gen.generator import derive_seed, suite_tokens
from ..gen.topology import FAMILY_ORDER
from ..search import (
    ORACLE_DURATION_S,
    SearchOutcome,
    outcome_to_mapping,
    search_token,
)
from ..store import write_json
from .aggregates import summary_stats

#: Schema tag of search artifacts (bump on incompatible changes).
SEARCH_SCHEMA = "repro-search/1"

#: Defaults of ``python -m repro.eval search`` (the built-in
#: campaign: one balanced suite, annealed on the power oracle).
SEARCH_SEED = 7
SEARCH_COUNT = 6
SEARCH_ALGORITHM = "anneal"
SEARCH_COST = "power"
SEARCH_CLI_ITERATIONS = 40
SEARCH_DURATION_S = ORACLE_DURATION_S


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one placement-search campaign.

    Attributes:
        seed: suite seed (also mixed into every walk seed).
        count: generated applications searched.
        families: family cycle of the suite.
        algorithm: search algorithm applied.
        cost: cost-oracle kind minimised.
        iterations: proposal budget per app.
        num_cores: provisioned platform width.
        duration_s: simulated seconds per oracle call.
        outcomes: per-app search outcomes, suite order.
    """

    seed: int
    count: int
    families: tuple[str, ...]
    algorithm: str
    cost: str
    iterations: int
    num_cores: int
    duration_s: float
    outcomes: tuple[SearchOutcome, ...]

    def counts(self) -> dict[str, int]:
        """How many searches landed in each placement status."""
        counts = {STATUS_OK: 0, STATUS_REPAIRED: 0, STATUS_REJECTED: 0}
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        return counts

    def gap_summary(self) -> dict[str, float]:
        """Aggregate gap statistics over the placed apps."""
        return summary_stats([outcome.gap for outcome in self.outcomes
                              if outcome.status != STATUS_REJECTED])


def run_search(seed: int = SEARCH_SEED, count: int = SEARCH_COUNT,
               families: tuple[str, ...] | None = None,
               algorithm: str = SEARCH_ALGORITHM,
               cost: str = SEARCH_COST,
               iterations: int = SEARCH_CLI_ITERATIONS,
               num_cores: int = 8,
               duration_s: float = SEARCH_DURATION_S
               ) -> SearchReport:
    """Generate a suite and search every app's placement space.

    Each app's walk seed derives from ``(suite seed, token,
    algorithm, cost)``, so campaigns reproduce byte-identically while
    apps draw independent walks.

    Raises:
        ValueError: unknown family/algorithm/cost or bad count.
    """
    tokens = suite_tokens(seed, count, families)
    outcomes = tuple(
        search_token(
            token, num_cores=num_cores, algorithm=algorithm, cost=cost,
            iterations=iterations,
            seed=derive_seed(SEARCH_SCHEMA, seed, token, algorithm,
                             cost),
            duration_s=duration_s)
        for token in tokens)
    return SearchReport(
        seed=seed,
        count=count,
        families=tuple(families) if families else FAMILY_ORDER,
        algorithm=algorithm,
        cost=cost,
        iterations=iterations,
        num_cores=num_cores,
        duration_s=duration_s,
        outcomes=outcomes,
    )


def search_payload(report: SearchReport) -> dict:
    """The deterministic ``repro-search/1`` document of one campaign."""
    return {
        "schema": SEARCH_SCHEMA,
        "seed": report.seed,
        "count": report.count,
        "families": list(report.families),
        "algorithm": report.algorithm,
        "cost": report.cost,
        "iterations": report.iterations,
        "num_cores": report.num_cores,
        "duration_s": report.duration_s,
        "status_counts": report.counts(),
        "gap_summary": report.gap_summary(),
        "outcomes": [outcome_to_mapping(outcome)
                     for outcome in report.outcomes],
    }


def write_search_json(report: SearchReport, path: str | Path) -> Path:
    """Write the search artifact; returns its path."""
    return write_json(path, search_payload(report))


__all__ = [
    "SEARCH_ALGORITHM",
    "SEARCH_CLI_ITERATIONS",
    "SEARCH_COST",
    "SEARCH_COUNT",
    "SEARCH_DURATION_S",
    "SEARCH_SCHEMA",
    "SEARCH_SEED",
    "SearchReport",
    "run_search",
    "search_payload",
    "write_search_json",
]
