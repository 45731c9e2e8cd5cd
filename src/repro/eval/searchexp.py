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

import argparse
from dataclasses import dataclass
from pathlib import Path

from ..gen.explorer import STATUS_OK, STATUS_REJECTED, STATUS_REPAIRED
from ..gen.generator import derive_seed, suite_tokens
from ..gen.topology import FAMILY_ORDER
from ..search.anneal import (
    ALGORITHMS,
    SearchOutcome,
    outcome_to_mapping,
    search_token,
)
from ..search.cost import ORACLE_DURATION_S, ORACLE_KINDS
from ..store import write_json
from .aggregates import summary_stats
from .cli import add_duration, add_metrics, positive_int
from .table1 import format_cell

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



#: Fixed column layout of the placement-search table: (header, width,
#: value picker kind, format kind).  Golden tests pin this set.
_SEARCH_COLUMNS: tuple[tuple[str, int, str, str], ...] = (
    ("app", 18, "app", "str"),
    ("family", 12, "family", "str"),
    ("status", 9, "status", "str"),
    ("start", 14, "start_policy", "str"),
    ("paper", 9, "paper_cost", "f2"),
    ("best", 9, "best_cost", "f2"),
    ("gap%", 7, "gap", "pct"),
    ("evals", 7, "evaluations", "int"),
    ("banks", 6, "im_banks", "int"),
    ("cores", 6, "active_cores", "int"),
)


def render_search(report: SearchReport, max_rows: int = 48) -> str:
    """Render a placement-search campaign as a fixed table.

    One row per application: the paper-policy cost, the best-found
    cost and the gap between them, plus the search effort (oracle
    evaluations actually paid) and the footprint of the best
    placement.  A gap percentile summary covers every outcome even
    when rows are elided.
    """
    lines = [
        f"Placement search: seed {report.seed}, "
        f"{report.count} app(s), {report.algorithm}/{report.cost}, "
        f"{report.iterations} iteration(s), {report.num_cores} cores, "
        f"{report.duration_s:g} s/eval"
    ]
    header = "  " + "".join(
        title.ljust(width) if kind == "str" else title.rjust(width)
        for title, width, _, kind in _SEARCH_COLUMNS)
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for outcome in report.outcomes[:max_rows]:
        cells = []
        for _, width, attr, kind in _SEARCH_COLUMNS:
            if attr in ("im_banks", "active_cores"):
                value = outcome.best_metrics.get(attr, 0)
            else:
                value = getattr(outcome, attr)
            rejected = outcome.status == "rejected"
            no_paper = attr == "paper_cost" and not outcome.paper_feasible
            if kind == "str":
                cells.append(str(value).ljust(width))
            elif rejected or no_paper:
                cells.append("-".rjust(width))
            else:
                cells.append(format_cell(value, kind).rjust(width))
        lines.append("  " + "".join(cells).rstrip())
    elided = len(report.outcomes) - max_rows
    if elided > 0:
        lines.append(f"  ... {elided} more outcome(s) elided")
    counts = report.counts()
    lines.append(
        f"  placements: {counts['ok']} ok, "
        f"{counts['repaired']} repaired, {counts['rejected']} rejected")
    gaps = report.gap_summary()
    if gaps["count"]:
        lines.append(
            f"  gap over {gaps['count']} placed app(s): "
            f"p50 {gaps['p50'] * 100:.2f} %, "
            f"p90 {gaps['p90'] * 100:.2f} %, "
            f"max {gaps['max'] * 100:.2f} %")
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=SEARCH_SEED,
        help=f"suite seed (default: {SEARCH_SEED})")
    parser.add_argument(
        "--count", type=positive_int, default=SEARCH_COUNT,
        help=f"generated applications (default: {SEARCH_COUNT})")
    parser.add_argument(
        "--families", nargs="+", choices=list(FAMILY_ORDER),
        default=None, metavar="FAMILY",
        help="topology families to cycle through "
             f"(default: all of {', '.join(FAMILY_ORDER)})")
    parser.add_argument(
        "--algorithm", choices=list(ALGORITHMS),
        default=SEARCH_ALGORITHM,
        help=f"search algorithm (default: {SEARCH_ALGORITHM})")
    parser.add_argument(
        "--cost", choices=list(ORACLE_KINDS), default=SEARCH_COST,
        help=f"cost oracle to minimise (default: {SEARCH_COST})")
    parser.add_argument(
        "--iterations", type=positive_int,
        default=SEARCH_CLI_ITERATIONS,
        help=f"proposals per app (default: {SEARCH_CLI_ITERATIONS})")
    parser.add_argument(
        "--cores", type=positive_int, default=8,
        help="provisioned platform width (default: 8)")
    add_duration(parser, f"{SEARCH_DURATION_S:g} s per oracle call")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the deterministic repro-search/1 artifact here")
    add_metrics(parser)


def run_command(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> str:
    """``python -m repro.eval search``: the rendered campaign."""
    report = run_search(
        seed=args.seed,
        count=args.count,
        families=tuple(args.families) if args.families else None,
        algorithm=args.algorithm,
        cost=args.cost,
        iterations=args.iterations,
        num_cores=args.cores,
        duration_s=args.duration if args.duration is not None
        else SEARCH_DURATION_S)
    if args.json is not None:
        write_search_json(report, args.json)
    return render_search(report)

__all__ = [
    "SEARCH_ALGORITHM",
    "SEARCH_CLI_ITERATIONS",
    "SEARCH_COST",
    "SEARCH_COUNT",
    "SEARCH_DURATION_S",
    "SEARCH_SCHEMA",
    "SEARCH_SEED",
    "SearchReport",
    "render_search",
    "run_search",
    "search_payload",
    "write_search_json",
]
