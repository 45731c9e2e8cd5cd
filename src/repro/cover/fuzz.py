"""Seeded coverage-driven fuzz loop over generator knobs.

Each attempt picks one still-uncovered *structural* target (a bin
with the outcome axis collapsed — outcomes cannot be dialled in,
they fall out of the mapping policies), derives the
:class:`~repro.gen.topology.Shape` knobs that steer ``random-dag``
generation toward it, and pushes the resulting token through the
screened explorer so every placement outcome (ok / repaired /
rejected / screened) stays reachable.  The loop stops at the attempt
budget or after a saturation window of attempts with no new bin.

:func:`random_campaign` is the untargeted twin — same budget, same
evaluation path, but families drawn blindly and no shape knobs — and
exists so the regression suite can pin the fuzzer's coverage
advantage (the acceptance bar is >= 25 % more bins at equal budget).

Determinism: one ``random.Random`` seeded from
``derive_seed(COVER_SCHEMA, mode, seed)`` drives every draw in
declaration order; tokens, bin keys and attempt logs are plain
strings, so a campaign is a pure function of its parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .. import obs
from ..gen.explorer import screen_policies
from ..gen.generator import app_from_token, app_token, derive_seed
from ..gen.topology import FAMILY_ORDER, Shape
from .model import COVER_SCHEMA, DIMENSIONS, CoverageMap

#: Built-in campaign defaults (the `python -m repro.eval cover`
#: artifact and the CI determinism gate both use these).
COVER_SEED = 7
COVER_BUDGET = 96
COVER_SATURATION = 24
COVER_DURATION_S = 2.0
COVER_POLICIES: tuple[str, ...] = ("paper", "balanced")
COVER_CORES = 8

#: Index of the outcome axis inside a bin-key label tuple.
_OUTCOME_AXIS = next(index for index, dimension in enumerate(DIMENSIONS)
                     if dimension.name == "outcome")


@dataclass(frozen=True)
class FuzzAttempt:
    """One fuzz-loop iteration.

    Attributes:
        token: the generated app token evaluated.
        target: structural target key (``family/depth/fan_in/
            sharing/replicas``); empty in random mode.
        new_bins: in-space bins first covered by this attempt.
    """

    token: str
    target: str
    new_bins: int


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one campaign (the ``repro-cover/1`` substrate)."""

    mode: str
    seed: int
    budget: int
    saturation: int
    policies: tuple[str, ...]
    num_cores: int
    duration_s: float
    attempts: tuple[FuzzAttempt, ...]
    coverage: CoverageMap
    status_counts: dict[str, int]
    saturated: bool


def _structural_targets(uncovered: list[str]) -> list[str]:
    """Uncovered bins with the outcome axis collapsed, deduplicated.

    Order follows the uncovered list (declaration order), so the
    target pool is deterministic.
    """
    targets: list[str] = []
    seen: set[str] = set()
    for key in uncovered:
        labels = key.split("/")
        structural = "/".join(
            labels[:_OUTCOME_AXIS] + labels[_OUTCOME_AXIS + 1:])
        if structural not in seen:
            seen.add(structural)
            targets.append(structural)
    return targets


def _shape_for(rng: random.Random, target: str,
               force_triggered: bool) -> tuple[str, Shape | None]:
    """Family + shape knobs steering generation toward a target.

    Only ``random-dag`` accepts knobs; other families return a bare
    identity and rely on the family's own draw ranges.  Knob values
    are drawn *within* the target band (every draw on the campaign
    stream, lazily, in axis order) so distinct attempts at the same
    bin explore different concrete shapes.
    """
    family, depth_label, fanin_label, sharing, replicas_label = \
        target.split("/")
    if family != "random-dag":
        return family, None
    if depth_label == "d5-8":
        depth = rng.randint(5, 8)
    elif depth_label == "d9+":
        depth = rng.randint(9, 12)
    else:
        depth = rng.randint(2, 4)
    if fanin_label == "f5+":
        fan_in = rng.randint(5, 8)
    elif fanin_label == "f2-4":
        fan_in = rng.randint(2, 4)
    else:
        fan_in = None
    if replicas_label == "r5+":
        replicas = rng.randint(5, 8)
    elif replicas_label == "r2-4":
        replicas = rng.randint(2, 4)
    else:
        replicas = 1
    return family, Shape(
        depth=depth,
        fan_in=fan_in,
        diamond=sharing == "shared",
        triggered=force_triggered or rng.random() < 0.25,
        replicas=replicas,
    )


def fuzz_campaign(seed: int = COVER_SEED, budget: int = COVER_BUDGET,
                  saturation: int = COVER_SATURATION,
                  policies: tuple[str, ...] = COVER_POLICIES,
                  num_cores: int = COVER_CORES,
                  duration_s: float = COVER_DURATION_S,
                  targeted: bool = True) -> FuzzReport:
    """Run one coverage campaign.

    Args:
        seed: campaign seed (also the generated apps' suite seed).
        budget: maximum attempts (generated apps).
        saturation: stop after this many consecutive attempts with
            no newly covered bin.
        policies: mapping policies screened per app.
        num_cores: provisioned platform width.
        duration_s: simulated seconds per placement.
        targeted: steer toward uncovered bins (False: the blind
            baseline of :func:`random_campaign`).

    Raises:
        ValueError: non-positive budget/saturation or unknown
            policy.
    """
    if budget < 1:
        raise ValueError(f"fuzz budget must be >= 1, got {budget}")
    if saturation < 1:
        raise ValueError(
            f"saturation window must be >= 1, got {saturation}")
    mode = "fuzz" if targeted else "random"
    rng = random.Random(derive_seed(COVER_SCHEMA, mode, seed))
    coverage = CoverageMap()
    attempts: list[FuzzAttempt] = []
    status_counts: dict[str, int] = {}
    stale = 0
    with obs.span("cover.campaign"):
        for index in range(budget):
            if stale >= saturation:
                break
            target = ""
            family, shape = "", None
            if targeted:
                uncovered = coverage.uncovered()
                if uncovered:
                    targets = _structural_targets(uncovered)
                    target = targets[rng.randrange(len(targets))]
                    adversarial = coverage.adversarial_hits()
                    family, shape = _shape_for(
                        rng, target,
                        force_triggered=adversarial[
                            "triggered-subgraph"] == 0)
            if not family:
                family = FAMILY_ORDER[rng.randrange(len(FAMILY_ORDER))]
            token = app_token(family, seed, index, shape=shape)
            app = app_from_token(token)
            records = screen_policies(
                app, policies, num_cores=num_cores,
                duration_s=duration_s, token=token, family=family)
            new_bins = 0
            for record in records:
                status_counts[record.status] = \
                    status_counts.get(record.status, 0) + 1
                _, fresh = coverage.record(app, record, token=token)
                new_bins += fresh
            obs.add("cover.attempts")
            if new_bins:
                obs.add("cover.new_bins", new_bins)
            attempts.append(FuzzAttempt(
                token=token, target=target, new_bins=new_bins))
            stale = 0 if new_bins else stale + 1
    obs.gauge("cover.covered_bins", len(coverage.covered()))
    return FuzzReport(
        mode=mode,
        seed=seed,
        budget=budget,
        saturation=saturation,
        policies=tuple(policies),
        num_cores=num_cores,
        duration_s=duration_s,
        attempts=tuple(attempts),
        coverage=coverage,
        status_counts=status_counts,
        saturated=stale >= saturation,
    )


def random_campaign(seed: int = COVER_SEED,
                    budget: int = COVER_BUDGET,
                    saturation: int = COVER_SATURATION,
                    policies: tuple[str, ...] = COVER_POLICIES,
                    num_cores: int = COVER_CORES,
                    duration_s: float = COVER_DURATION_S) -> FuzzReport:
    """The untargeted baseline: blind family draws, no shape knobs."""
    return fuzz_campaign(seed=seed, budget=budget,
                         saturation=saturation, policies=policies,
                         num_cores=num_cores, duration_s=duration_s,
                         targeted=False)
