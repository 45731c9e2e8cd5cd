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


__all__ = [
    "GEN_COUNT",
    "GEN_DURATION_S",
    "GEN_POLICIES",
    "GEN_SEED",
    "GenReport",
    "POLICIES",
    "gen_payload",
    "run_gen",
    "write_gen_json",
]
