"""Mapping-policy explorer: generated apps x policies -> metrics.

:func:`evaluate_app` runs one ``(application, policy, cores)`` point
through the behavioural simulator and distils the figures of merit the
paper's methodology optimises: the VFS clock floor, the duty cycle of
the provisioned cores, average power, and the synchronization
overheads.  Applications the policy cannot place are *repaired* when
the failure is a core shortage (replica groups are trimmed, largest
first — the same concession a developer would make porting a wide app
to a narrow platform) and *rejected* when code genuinely does not fit
the instruction memory.

Everything is a pure function of ``(app identity, policy, cores,
duration)``; records therefore cache cleanly under the sweep engine
and reproduce byte-identically across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .. import obs
from ..apps.mapping import MappingError
from ..apps.phases import AppSpec, Trigger
from ..sysc.engine import Mode, simulate, uniform_schedule
from .generator import app_from_token, parse_app_token
from .policies import POLICIES, get_policy

#: Default simulated seconds per exploration point (sample-granular
#: behavioural simulation: ~1250 ticks at 250 Hz).
EXPLORE_DURATION_S = 5.0

#: Pathological-beat ratio driving ON_ABNORMAL phases of generated
#: apps (the paper's Table I setting for RP-CLASS).
EXPLORE_ABNORMAL_RATIO = 0.20

#: Placement outcomes.
STATUS_OK = "ok"
STATUS_REPAIRED = "repaired"
STATUS_REJECTED = "rejected"

#: Outcome of candidates the analytic screen scored but never
#: simulated (see :func:`screen_policies`).
STATUS_SCREENED = "screened"


@dataclass(frozen=True)
class ExplorationRecord:
    """Outcome of one (application, policy, cores) point.

    Attributes:
        app: application name.
        token: regeneration token (empty for literal apps).
        family: topology family (empty for literal apps).
        policy: mapping policy applied.
        num_cores: provisioned platform width.
        status: ``ok`` / ``repaired`` / ``rejected``, or
            ``screened`` for analytic-only records (never simulated;
            ``simulated_s`` stays 0).
        repairs: replicas trimmed to fit the platform.
        error: placement error text (rejected points only).
        required_mhz: clock requirement before the platform floor.
        clock_mhz: chosen VFS clock (0 when rejected).
        voltage: chosen supply voltage (0 when rejected).
        power_uw: average power (0 when rejected).
        duty_cycle: executed cycles / provisioned core cycles.
        sync_overhead: executed sync ops / executed cycles.
        code_overhead: inserted sync words / total code words.
        active_cores: cores the placement occupies.
        im_banks: IM banks holding code.
        simulated_s: simulated seconds this point covered (0 when
            rejected).
    """

    app: str
    token: str
    family: str
    policy: str
    num_cores: int
    status: str
    repairs: int = 0
    error: str = ""
    required_mhz: float = 0.0
    clock_mhz: float = 0.0
    voltage: float = 0.0
    power_uw: float = 0.0
    duty_cycle: float = 0.0
    sync_overhead: float = 0.0
    code_overhead: float = 0.0
    active_cores: int = 0
    im_banks: int = 0
    simulated_s: float = 0.0


def repair_app(app: AppSpec, num_cores: int) -> tuple[AppSpec, int]:
    """Trim replica groups until one core per replica fits.

    Replicas are removed from the widest group first (ties: earliest
    phase), one at a time — deterministic, and minimal in the number
    of replicas lost.  Returns the (possibly unchanged) app and the
    number of replicas trimmed.
    """
    phases = list(app.phases)
    trimmed = 0
    while sum(phase.replicas for phase in phases) > num_cores:
        widest = max(range(len(phases)),
                     key=lambda index: (phases[index].replicas, -index))
        if phases[widest].replicas <= 1:
            break  # every group already minimal: nothing left to trim
        phases[widest] = replace(phases[widest],
                                 replicas=phases[widest].replicas - 1)
        trimmed += 1
    if trimmed == 0:
        return app, 0
    repaired = AppSpec(
        name=app.name,
        fs=app.fs,
        phases=phases,
        channels=list(app.channels),
        runtime_words=app.runtime_words,
        beat_span_samples=app.beat_span_samples,
        description=app.description,
    )
    repaired.validate()
    return repaired, trimmed


def evaluate_app(app: AppSpec, policy_name: str, num_cores: int = 8,
                 duration_s: float = EXPLORE_DURATION_S,
                 token: str = "", family: str = "") -> ExplorationRecord:
    """Run one application through one policy and summarise it.

    Args:
        app: the application to place and simulate.
        policy_name: key in :data:`repro.gen.policies.POLICIES`.
        num_cores: provisioned platform width.
        duration_s: simulated seconds.
        token: regeneration token recorded in the record.
        family: topology family recorded in the record.

    Returns:
        One :class:`ExplorationRecord` — placed (with the
        methodology's figures of merit) or rejected (with the
        placement error).

    Raises:
        ValueError: unknown policy name.
    """
    policy = get_policy(policy_name)
    repairs = 0
    candidate = app
    if policy.multicore:
        candidate, repairs = repair_app(app, num_cores)
    base = dict(app=app.name, token=token, family=family,
                policy=policy_name, num_cores=num_cores)
    obs.add("gen.points")
    if repairs:
        obs.add("gen.repairs", repairs)
    try:
        plan = policy.map(candidate, num_cores)
    except MappingError as exc:
        obs.add(f"gen.status.{STATUS_REJECTED}")
        return ExplorationRecord(
            **base, status=STATUS_REJECTED, repairs=repairs,
            error=str(exc))
    obs.add(
        f"gen.status.{STATUS_REPAIRED if repairs else STATUS_OK}"
    )
    mode = Mode.MULTI_CORE if policy.multicore else Mode.SINGLE_CORE
    has_triggered = any(phase.trigger is Trigger.ON_ABNORMAL
                        for phase in candidate.phases)
    ratio = EXPLORE_ABNORMAL_RATIO if has_triggered else 0.0
    schedule = uniform_schedule(duration_s, candidate.fs,
                                abnormal_ratio=ratio)
    result = simulate(candidate, mode, schedule, duration_s=duration_s,
                      num_cores=num_cores, mapping=plan)
    activity = result.activity
    provisioned = activity.cycles * activity.cores_on
    return ExplorationRecord(
        **base,
        status=STATUS_REPAIRED if repairs else STATUS_OK,
        repairs=repairs,
        required_mhz=result.required_mhz,
        clock_mhz=result.operating_point.frequency_mhz,
        voltage=result.operating_point.voltage,
        power_uw=result.power.total_uw,
        duty_cycle=activity.core_active_cycles / provisioned
        if provisioned > 0 else 0.0,
        sync_overhead=result.runtime_overhead,
        code_overhead=result.code_overhead,
        active_cores=plan.active_cores,
        im_banks=len(plan.im_banks_used),
        simulated_s=duration_s,
    )


def keep_top_k(costs: np.ndarray, top_k: int) -> list[int]:
    """Indices of the ``top_k`` cheapest costs, stable on ties."""
    order = np.argsort(costs, kind="stable")
    return [int(index) for index in order[:top_k]]


def screen_policies(app: AppSpec,
                    policies: tuple[str, ...] = ("paper", "balanced"),
                    num_cores: int = 8,
                    duration_s: float = EXPLORE_DURATION_S,
                    top_k: int = 1, token: str = "",
                    family: str = "") -> list[ExplorationRecord]:
    """Screen one app's policy candidates; simulate only the best.

    Every multicore policy's placement is scored by the vectorised
    analytic model (:mod:`repro.oracle`) in one batched call; only
    the ``top_k`` analytically-cheapest candidates pay a full
    behavioural simulation.  The rest come back with analytic
    figures of merit under ``status == "screened"`` (and
    ``simulated_s == 0``).  Single-core policies cannot be screened
    (the model covers the multicore engine) and fall through to the
    exact :func:`evaluate_app`.

    Args:
        app: the application to place.
        policies: mapping-policy names to rank.
        num_cores: provisioned platform width.
        duration_s: simulated seconds per *exact* point.
        top_k: candidates promoted to exact simulation.
        token: regeneration token recorded in the records.
        family: topology family recorded in the records.

    Returns:
        One record per policy, in ``policies`` order.

    Raises:
        ValueError: unknown policy or ``top_k`` < 1.
    """
    from ..oracle import AnalyticModel
    from ..search.space import candidate_from_plan

    if top_k < 1:
        raise ValueError(f"top-k must be >= 1, got {top_k}")
    repaired, repairs = repair_app(app, num_cores)
    base = dict(app=app.name, token=token, family=family,
                num_cores=num_cores)
    records: dict[str, ExplorationRecord] = {}
    feasible: list[tuple[str, object]] = []
    for name in policies:
        policy = get_policy(name)
        if not policy.multicore:
            records[name] = evaluate_app(
                app, name, num_cores=num_cores, duration_s=duration_s,
                token=token, family=family)
            continue
        try:
            plan = policy.map(repaired, num_cores)
        except MappingError as exc:
            obs.add("gen.points")
            obs.add(f"gen.status.{STATUS_REJECTED}")
            records[name] = ExplorationRecord(
                **base, policy=name, status=STATUS_REJECTED,
                repairs=repairs, error=str(exc))
            continue
        feasible.append((name, candidate_from_plan(plan)))
    if feasible:
        model = AnalyticModel(repaired, num_cores=num_cores,
                              kind="power", duration_s=duration_s)
        scores = model.score([candidate for _, candidate in feasible])
        obs.add("gen.screen.scored", len(feasible))
        kept = set(keep_top_k(scores.cost, top_k))
        for index, (name, _) in enumerate(feasible):
            if index in kept:
                records[name] = evaluate_app(
                    app, name, num_cores=num_cores,
                    duration_s=duration_s, token=token, family=family)
                continue
            metrics = scores.metrics(index)
            obs.add("gen.points")
            obs.add(f"gen.status.{STATUS_SCREENED}")
            records[name] = ExplorationRecord(
                **base, policy=name, status=STATUS_SCREENED,
                repairs=repairs,
                required_mhz=metrics["required_mhz"],
                clock_mhz=metrics["clock_mhz"],
                voltage=metrics["voltage"],
                power_uw=metrics["power_uw"],
                duty_cycle=metrics["duty_cycle"],
                sync_overhead=metrics["sync_overhead"],
                code_overhead=metrics["code_overhead"],
                active_cores=metrics["active_cores"],
                im_banks=metrics["im_banks"],
                simulated_s=0.0)
    return [records[name] for name in policies]


def screen_tokens(tokens: list[str],
                  policies: tuple[str, ...] = ("paper", "balanced"),
                  num_cores: int = 8,
                  duration_s: float = EXPLORE_DURATION_S,
                  top_k: int = 1) -> list[ExplorationRecord]:
    """:func:`screen_policies` over a token suite, app-major order.

    Raises:
        ValueError: unknown policy, malformed token, or bad top-k.
    """
    for name in policies:
        get_policy(name)  # fail fast before any scoring
    records: list[ExplorationRecord] = []
    for token in tokens:
        family, _, _, _ = parse_app_token(token)
        app = app_from_token(token)
        records.extend(screen_policies(
            app, policies, num_cores=num_cores, duration_s=duration_s,
            top_k=top_k, token=token, family=family))
    return records


def policy_rates(records: list[ExplorationRecord]
                 ) -> dict[str, dict[str, float | int]]:
    """Per-policy placement-outcome rates — the standing metric.

    Adversarial generated populations (deep chains, wide fan-in,
    section-heavy draws) are exactly where placement heuristics
    diverge, so every exploration reports how often each policy had
    to repair (trim replicas) or outright reject, alongside the
    absolute counts.

    Returns:
        ``{policy: {"points", "ok", "repaired", "rejected",
        "screened", "replicas_trimmed", "repair_rate",
        "reject_rate"}}`` in first-seen policy order.  Rates are
        fractions of the policy's points (0.0 when the policy saw no
        points).
    """
    per: dict[str, dict[str, float | int]] = {}
    for record in records:
        entry = per.setdefault(record.policy, {
            "points": 0, STATUS_OK: 0, STATUS_REPAIRED: 0,
            STATUS_REJECTED: 0, STATUS_SCREENED: 0,
            "replicas_trimmed": 0})
        entry["points"] += 1
        entry[record.status] += 1
        entry["replicas_trimmed"] += record.repairs
    for entry in per.values():
        points = entry["points"]
        entry["repair_rate"] = entry[STATUS_REPAIRED] / points \
            if points else 0.0
        entry["reject_rate"] = entry[STATUS_REJECTED] / points \
            if points else 0.0
    return per


def evaluate_token(token: str, policy_name: str, num_cores: int = 8,
                   duration_s: float = EXPLORE_DURATION_S
                   ) -> ExplorationRecord:
    """Regenerate an app from its token and evaluate it.

    Raises:
        ValueError: malformed token or unknown policy.
    """
    family, _, _, _ = parse_app_token(token)
    app = app_from_token(token)
    return evaluate_app(app, policy_name, num_cores=num_cores,
                        duration_s=duration_s, token=token, family=family)


def explore(tokens: list[str],
            policies: tuple[str, ...] = ("paper", "balanced"),
            num_cores: int = 8,
            duration_s: float = EXPLORE_DURATION_S
            ) -> list[ExplorationRecord]:
    """Evaluate every (token, policy) pair, app-major order.

    Args:
        tokens: regeneration tokens of the apps to explore.
        policies: mapping-policy names to apply to each app.
        num_cores: provisioned platform width.
        duration_s: simulated seconds per point.

    Returns:
        ``len(tokens) * len(policies)`` records, apps outermost.

    Raises:
        ValueError: unknown policy or malformed token.
    """
    for name in policies:
        get_policy(name)  # fail fast before any simulation
    return [evaluate_token(token, name, num_cores=num_cores,
                           duration_s=duration_s)
            for token in tokens
            for name in policies]


__all__ = [
    "EXPLORE_ABNORMAL_RATIO",
    "EXPLORE_DURATION_S",
    "ExplorationRecord",
    "POLICIES",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_REPAIRED",
    "STATUS_SCREENED",
    "evaluate_app",
    "evaluate_token",
    "explore",
    "keep_top_k",
    "policy_rates",
    "repair_app",
    "screen_policies",
    "screen_tokens",
]
