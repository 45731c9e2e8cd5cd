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

Campaigns can also run on the two-tier oracle
(:mod:`repro.oracle`): proposals are screened by the vectorised
analytic model and only the top-k survivors are simulated.  Those
reports serialise under schema ``repro-search/2``, which extends the
v1 document with screen statistics and the calibration error
percentiles of the analytic model; exact campaigns keep emitting v1
byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..gen.explorer import STATUS_OK, STATUS_REJECTED, STATUS_REPAIRED
from ..gen.generator import app_from_token, derive_seed, suite_tokens
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

#: Schema tag of two-tier campaigns (v1 + screen stats +
#: calibration error percentiles).
SEARCH_SCHEMA_V2 = "repro-search/2"

#: Evaluation modes ``python -m repro.eval search`` accepts.
SEARCH_ORACLES = ("exact", "two-tier")

#: Defaults of ``python -m repro.eval search`` (the built-in
#: campaign: one balanced suite, annealed on the power oracle).
SEARCH_SEED = 7
SEARCH_COUNT = 6
SEARCH_ALGORITHM = "anneal"
SEARCH_COST = "power"
SEARCH_CLI_ITERATIONS = 40
SEARCH_DURATION_S = ORACLE_DURATION_S

#: Two-tier defaults (mirroring :mod:`repro.oracle`): exact
#: verifications per walk, and the analytic proposal budget that
#: replaces ``iterations`` when screening.
SEARCH_TOP_K = 4
SEARCH_SCREEN_BUDGET = 160


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
        oracle: evaluation mode (``exact`` or ``two-tier``).
        top_k: exact verifications per walk (two-tier only, else 0).
        screen_budget: analytic proposal budget per walk (two-tier
            only, else 0).
        calibration: analytic-vs-exact calibration block (see
            :func:`repro.oracle.calibration_payload`; ``None`` for
            exact campaigns).
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
    oracle: str = "exact"
    top_k: int = 0
    screen_budget: int = 0
    calibration: dict | None = None

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

    def screen_summary(self) -> dict[str, int]:
        """Campaign-wide screen statistics (two-tier campaigns)."""
        placed = [outcome for outcome in self.outcomes
                  if outcome.status != STATUS_REJECTED]
        return {
            "screened": sum(o.screened for o in placed),
            "simulated": sum(o.evaluations for o in placed),
            "agreed": sum(1 for o in placed if o.screen_agreement),
            "placed": len(placed),
        }


def run_search(seed: int = SEARCH_SEED, count: int = SEARCH_COUNT,
               families: tuple[str, ...] | None = None,
               algorithm: str = SEARCH_ALGORITHM,
               cost: str = SEARCH_COST,
               iterations: int = SEARCH_CLI_ITERATIONS,
               num_cores: int = 8,
               duration_s: float = SEARCH_DURATION_S,
               oracle: str = "exact",
               top_k: int = SEARCH_TOP_K,
               screen_budget: int = SEARCH_SCREEN_BUDGET
               ) -> SearchReport:
    """Generate a suite and search every app's placement space.

    Each app's walk seed derives from ``(suite seed, token,
    algorithm, cost)``, so campaigns reproduce byte-identically while
    apps draw independent walks.  Walk seeds are derived the same way
    for both oracles, so an exact and a two-tier campaign of the same
    configuration are directly comparable.

    Args (beyond the obvious campaign parameters):
        oracle: ``exact`` simulates every proposal; ``two-tier``
            screens ``screen_budget`` proposals per walk analytically
            and simulates only the ``top_k`` survivors (plus the
            start), then appends a calibration block cross-checking
            the analytic model on the suite's own apps.
        top_k: exact verifications per two-tier walk.
        screen_budget: analytic proposal budget per two-tier walk
            (replaces ``iterations`` for the walk itself).

    Raises:
        ValueError: unknown family/algorithm/cost/oracle, bad count,
            ``top_k`` < 1, or ``screen_budget`` < ``top_k``.
    """
    if oracle not in SEARCH_ORACLES:
        raise ValueError(
            f"unknown oracle {oracle!r}; choose from "
            f"{list(SEARCH_ORACLES)}")
    if top_k < 1:
        raise ValueError(f"top-k must be >= 1, got {top_k}")
    if screen_budget < top_k:
        raise ValueError(
            f"screen budget must be >= top-k, got "
            f"{screen_budget} < {top_k}")
    two_tier = oracle == "two-tier"
    backend = None
    walk_iterations = iterations
    if two_tier:
        from ..oracle import get_two_tier
        backend = get_two_tier(cost, duration_s, top_k=top_k,
                               screen_budget=screen_budget)
        walk_iterations = screen_budget
    tokens = suite_tokens(seed, count, families)
    outcomes = tuple(
        search_token(
            token, num_cores=num_cores, algorithm=algorithm, cost=cost,
            iterations=walk_iterations,
            seed=derive_seed(SEARCH_SCHEMA, seed, token, algorithm,
                             cost),
            duration_s=duration_s, oracle=backend)
        for token in tokens)
    calibration = None
    if two_tier:
        from ..oracle import calibrate, calibration_payload
        calibration = calibration_payload(calibrate(
            [app_from_token(token) for token in tokens], kind=cost,
            duration_s=duration_s, num_cores=num_cores, seed=seed))
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
        oracle=oracle,
        top_k=top_k if two_tier else 0,
        screen_budget=screen_budget if two_tier else 0,
        calibration=calibration,
    )


def search_payload(report: SearchReport) -> dict:
    """The deterministic JSON document of one search campaign.

    Exact campaigns serialise under ``repro-search/1`` exactly as
    before; two-tier campaigns under ``repro-search/2`` with the
    extra oracle parameters, per-outcome screen fields, the
    campaign-wide screen summary, and the calibration block.
    """
    two_tier = report.oracle == "two-tier"
    payload = {
        "schema": SEARCH_SCHEMA_V2 if two_tier else SEARCH_SCHEMA,
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
        "outcomes": [outcome_to_mapping(outcome, screen=two_tier)
                     for outcome in report.outcomes],
    }
    if two_tier:
        payload["oracle"] = report.oracle
        payload["top_k"] = report.top_k
        payload["screen_budget"] = report.screen_budget
        payload["screen_summary"] = report.screen_summary()
        payload["calibration"] = dict(report.calibration or {})
    return payload


def write_search_json(report: SearchReport, path: str | Path) -> Path:
    """Write the search artifact; returns its path."""
    return write_json(path, search_payload(report))


__all__ = [
    "SEARCH_ALGORITHM",
    "SEARCH_CLI_ITERATIONS",
    "SEARCH_COST",
    "SEARCH_COUNT",
    "SEARCH_DURATION_S",
    "SEARCH_ORACLES",
    "SEARCH_SCHEMA",
    "SEARCH_SCHEMA_V2",
    "SEARCH_SCREEN_BUDGET",
    "SEARCH_SEED",
    "SEARCH_TOP_K",
    "SearchReport",
    "run_search",
    "search_payload",
    "write_search_json",
]
