"""EXP-GEN: generated-workload x mapping-policy exploration.

The property-style counterpart of the paper's fixed Table I: a seeded
suite of synthetic applications (:mod:`repro.gen`) is pushed through
several mapping policies, and every point reports the methodology's
figures of merit (clock floor, duty cycle, power, sync overhead) or
the placement failure that rejected it.

The JSON artifact (:func:`gen_payload`) contains *only* deterministic
fields — identities, canonical app forms, metrics — never wall-clock
timing, so two runs of the same configuration produce byte-identical
files (the CLI acceptance check, and the contract that makes
artifacts diffable across machines).
"""

from __future__ import annotations

import argparse
from dataclasses import asdict, dataclass
from pathlib import Path

from ..gen.explorer import (
    EXPLORE_DURATION_S,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_REPAIRED,
    ExplorationRecord,
    explore,
    policy_rates,
)
from ..gen.generator import (
    GEN_SCHEMA,
    app_from_token,
    app_to_mapping,
    suite_tokens,
)
from ..gen.policies import POLICIES
from ..gen.topology import FAMILY_ORDER
from ..store import write_json
from .aggregates import summary_stats
from .cli import add_duration, add_metrics, positive_int
from .table1 import format_cell

#: Default policies of the experiment (>= 2, per the acceptance bar:
#: the paper's placement plus both new heuristics).
GEN_POLICIES: tuple[str, ...] = ("paper", "balanced", "critical-path")

#: Default suite seed and size of ``python -m repro.eval gen``.
GEN_SEED = 7
GEN_COUNT = 20

#: Default simulated seconds per point (re-exported from the explorer).
GEN_DURATION_S = EXPLORE_DURATION_S


@dataclass(frozen=True)
class GenReport:
    """Outcome of one generated-workload exploration.

    Attributes:
        seed: suite seed.
        count: generated applications.
        families: family cycle of the suite.
        policies: mapping policies applied, in order.
        num_cores: provisioned platform width.
        duration_s: simulated seconds per point.
        records: per-(app, policy) records, app-major order.
    """

    seed: int
    count: int
    families: tuple[str, ...]
    policies: tuple[str, ...]
    num_cores: int
    duration_s: float
    records: tuple[ExplorationRecord, ...]

    def counts(self) -> dict[str, int]:
        """How many records landed in each placement status."""
        counts = {STATUS_OK: 0, STATUS_REPAIRED: 0, STATUS_REJECTED: 0}
        for record in self.records:
            counts[record.status] += 1
        return counts

    def policy_rates(self) -> dict[str, dict[str, float | int]]:
        """Per-policy reject/repair rates (the standing metric)."""
        return policy_rates(list(self.records))


def run_gen(seed: int = GEN_SEED, count: int = GEN_COUNT,
            families: tuple[str, ...] | None = None,
            policies: tuple[str, ...] = GEN_POLICIES,
            num_cores: int = 8,
            duration_s: float = GEN_DURATION_S) -> GenReport:
    """Generate a suite and explore it under every policy.

    Raises:
        ValueError: unknown family/policy or non-positive count.
    """
    tokens = suite_tokens(seed, count, families)
    records = explore(tokens, policies=tuple(policies),
                      num_cores=num_cores, duration_s=duration_s)
    return GenReport(
        seed=seed,
        count=count,
        families=tuple(families) if families else FAMILY_ORDER,
        policies=tuple(policies),
        num_cores=num_cores,
        duration_s=duration_s,
        records=tuple(records),
    )


def gen_payload(report: GenReport) -> dict:
    """The deterministic JSON document of one exploration."""
    apps = {}
    for record in report.records:
        if record.token and record.token not in apps:
            apps[record.token] = app_to_mapping(
                app_from_token(record.token))
    return {
        "schema": GEN_SCHEMA,
        "seed": report.seed,
        "count": report.count,
        "families": list(report.families),
        "policies": list(report.policies),
        "num_cores": report.num_cores,
        "duration_s": report.duration_s,
        "status_counts": report.counts(),
        "policy_rates": report.policy_rates(),
        "apps": apps,
        "records": [asdict(record) for record in report.records],
    }


def write_gen_json(report: GenReport, path: str | Path) -> Path:
    """Write the exploration artifact; returns its path."""
    return write_json(path, gen_payload(report))



#: Fixed column layout of the generated-workload table: (header,
#: width, record attribute, format kind for
#: :func:`repro.eval.table1.format_cell`).  Golden tests pin this set;
#: extend deliberately.
_GEN_COLUMNS: tuple[tuple[str, int, str, str], ...] = (
    ("app", 18, "app", "str"),
    ("family", 12, "family", "str"),
    ("policy", 14, "policy", "str"),
    ("status", 9, "status", "str"),
    ("clock", 7, "clock_mhz", "f2"),
    ("V", 6, "voltage", "f2"),
    ("duty", 6, "duty_cycle", "f2"),
    ("power", 8, "power_uw", "f1"),
    ("sync%", 7, "sync_overhead", "pct"),
    ("banks", 6, "im_banks", "int"),
)


def _policy_power_summary(report: GenReport) -> list[str]:
    """Per-policy placement rates and power percentiles.

    The reject/repair rates are the standing per-policy metric the
    adversarial-graph-shapes follow-up tracks
    (:func:`repro.gen.explorer.policy_rates`); the power percentiles
    cover the placed points.
    """
    rates = report.policy_rates()
    lines = ["  per-policy placements and power (uW):"]
    for policy in report.policies:
        rows = [record for record in report.records
                if record.policy == policy]
        placed = [record.power_uw for record in rows
                  if record.status != "rejected"]
        rate = rates[policy]
        label = (f"    {policy:<15}{len(placed):3d} placed  "
                 f"reject {rate['reject_rate'] * 100:5.1f}%  "
                 f"repair {rate['repair_rate'] * 100:5.1f}%")
        if placed:
            stats = summary_stats(placed)
            lines.append(
                f"{label}   p50 {stats['p50']:.1f}  "
                f"p90 {stats['p90']:.1f}  max {stats['max']:.1f}")
        else:
            lines.append(f"{label}   (no placed points)")
    return lines


def render_gen(report: GenReport, max_rows: int = 48) -> str:
    """Render a generated-workload exploration as a fixed table.

    Args:
        report: the exploration to render.
        max_rows: per-record rows shown before eliding (population
            sweeps run to hundreds of apps; the per-policy percentile
            summary below the table always covers every record).
    """
    lines = [
        f"Generated workloads: seed {report.seed}, "
        f"{report.count} app(s) x {len(report.policies)} policy(ies), "
        f"{report.num_cores} cores, {report.duration_s:g} s"
    ]
    header = "  " + "".join(
        title.ljust(width) if kind == "str" else title.rjust(width)
        for title, width, _, kind in _GEN_COLUMNS)
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for record in report.records[:max_rows]:
        cells = []
        for _, width, attr, kind in _GEN_COLUMNS:
            value = getattr(record, attr)
            if kind == "str":
                cells.append(str(value).ljust(width))
            elif record.status == "rejected":
                cells.append("-".rjust(width))
            else:
                cells.append(format_cell(value, kind).rjust(width))
        lines.append("  " + "".join(cells).rstrip())
    elided = len(report.records) - max_rows
    if elided > 0:
        lines.append(f"  ... {elided} more record(s) elided")
    counts = report.counts()
    lines.append(
        f"  placements: {counts['ok']} ok, "
        f"{counts['repaired']} repaired, {counts['rejected']} rejected")
    powered = [record.power_uw for record in report.records
               if record.status != "rejected"]
    if powered:
        lines.append(
            f"  power across placed points: {min(powered):.1f}-"
            f"{max(powered):.1f} uW")
    if report.records:
        lines.extend(_policy_power_summary(report))
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=GEN_SEED,
        help=f"suite seed (default: {GEN_SEED})")
    parser.add_argument(
        "--count", type=positive_int, default=GEN_COUNT,
        help=f"generated applications (default: {GEN_COUNT})")
    parser.add_argument(
        "--families", nargs="+", choices=list(FAMILY_ORDER),
        default=None, metavar="FAMILY",
        help="topology families to cycle through "
             f"(default: all of {', '.join(FAMILY_ORDER)})")
    parser.add_argument(
        "--policies", nargs="+", choices=sorted(POLICIES),
        default=list(GEN_POLICIES), metavar="POLICY",
        help="mapping policies to compare "
             f"(default: {' '.join(GEN_POLICIES)})")
    parser.add_argument(
        "--cores", type=positive_int, default=8,
        help="provisioned platform width (default: 8)")
    add_duration(parser, f"{GEN_DURATION_S:g} s")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the deterministic exploration artifact here")
    add_metrics(parser)


def run_command(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> str:
    """``python -m repro.eval gen``: the rendered exploration."""
    report = run_gen(
        seed=args.seed,
        count=args.count,
        families=tuple(args.families) if args.families else None,
        policies=tuple(args.policies),
        num_cores=args.cores,
        duration_s=args.duration if args.duration is not None
        else GEN_DURATION_S)
    if args.json is not None:
        write_gen_json(report, args.json)
    return render_gen(report)

__all__ = [
    "GEN_COUNT",
    "GEN_DURATION_S",
    "GEN_POLICIES",
    "GEN_SEED",
    "GenReport",
    "POLICIES",
    "gen_payload",
    "render_gen",
    "run_gen",
    "write_gen_json",
]
