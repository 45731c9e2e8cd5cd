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

import argparse
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
from ..gen.policies import POLICIES
from ..store import write_json
from .cli import add_duration, add_metrics, positive_int


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



def render_cover(report: FuzzReport) -> str:
    """Render a coverage campaign: marginals, coverpoints, outcomes.

    The layout is fixed (golden tests pin it): the headline, the
    cross-bin count, one marginal row per dimension with its missing
    labels, one line per adversarial coverpoint, and the outcome
    tallies.
    """
    coverage = report.coverage
    covered = coverage.covered()
    lines = [
        f"Coverage {report.mode}: seed {report.seed}, "
        f"{len(report.attempts)}/{report.budget} attempt(s), "
        f"{len(report.policies)} policy(ies), "
        f"{report.num_cores} cores, {report.duration_s:g} s"
    ]
    bins_line = f"  bins: {len(covered)}/{len(coverage.space)} covered"
    if report.saturated:
        bins_line += " (saturated)"
    unexpected = coverage.unexpected()
    if unexpected:
        bins_line += f", {len(unexpected)} outside the model"
    lines.append(bins_line)
    lines.append(f"  {'dimension':<10} {'hit':>5}  missing")
    lines.append("  " + "-" * 38)
    hit_labels: list[set[str]] = [set() for _ in DIMENSIONS]
    for key in covered:
        for axis, label in enumerate(key.split("/")):
            hit_labels[axis].add(label)
    for dimension, hit in zip(DIMENSIONS, hit_labels):
        missing = " ".join(label for label in dimension.labels
                           if label not in hit)
        row = f"  {dimension.name:<10} " \
              f"{f'{len(hit)}/{len(dimension.labels)}':>5}"
        lines.append(f"{row}  {missing}".rstrip())
    adversarial = coverage.adversarial_hits()
    for name in ADVERSARIAL_POINTS:
        hits = adversarial[name]
        if hits:
            lines.append(
                f"  adversarial {name}: {hits} hit(s), first "
                f"{coverage.adversarial_first(name)}")
        else:
            lines.append(f"  adversarial {name}: not hit")
    outcomes = ", ".join(
        f"{report.status_counts.get(status, 0)} {status}"
        for status in ("ok", "repaired", "rejected", "screened"))
    lines.append(f"  outcomes: {outcomes}")
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=COVER_SEED,
        help=f"campaign seed (default: {COVER_SEED})")
    parser.add_argument(
        "--budget", type=positive_int, default=COVER_BUDGET,
        help=f"maximum fuzz attempts (default: {COVER_BUDGET})")
    parser.add_argument(
        "--saturation", type=positive_int, default=COVER_SATURATION,
        help="stop after this many attempts with no new bin "
             f"(default: {COVER_SATURATION})")
    parser.add_argument(
        "--policies", nargs="+", choices=sorted(POLICIES),
        default=list(COVER_POLICIES), metavar="POLICY",
        help="mapping policies screened per app "
             f"(default: {' '.join(COVER_POLICIES)})")
    parser.add_argument(
        "--cores", type=positive_int, default=COVER_CORES,
        help=f"provisioned platform width (default: {COVER_CORES})")
    add_duration(parser, f"{COVER_DURATION_S:g} s per exact point")
    parser.add_argument(
        "--random", action="store_true",
        help="blind baseline: same budget, no coverage targeting")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the deterministic repro-cover/1 artifact here")
    add_metrics(parser)


def run_command(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> str:
    """``python -m repro.eval cover``: the rendered campaign."""
    report = run_cover(
        seed=args.seed,
        budget=args.budget,
        saturation=args.saturation,
        policies=tuple(args.policies),
        num_cores=args.cores,
        duration_s=args.duration if args.duration is not None
        else COVER_DURATION_S,
        targeted=not args.random)
    if args.json is not None:
        write_cover_json(report, args.json)
    return render_cover(report)

__all__ = [
    "COVER_BUDGET",
    "COVER_CORES",
    "COVER_DURATION_S",
    "COVER_POLICIES",
    "COVER_SATURATION",
    "COVER_SEED",
    "cover_payload",
    "render_cover",
    "run_cover",
    "write_cover_json",
]
