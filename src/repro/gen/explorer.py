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

:func:`measure` is the one path from a placement to those figures:
the explorer, its policy screen and the placement search's cost
oracles (:mod:`repro.search.cost`) all call it.

Everything is a pure function of ``(app identity, policy, cores,
duration)``; records therefore cache cleanly under the sweep engine
and reproduce byte-identically across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .. import obs
from ..apps.mapping import MappingError, MappingPlan
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

#: Outcome of placements the policy screen simulated but did not
#: keep, because another policy's placement drew less power (see
#: :func:`screen_policies`).
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
            ``screened`` for a simulated placement the policy screen
            did not keep.
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


def measure(app: AppSpec, plan: MappingPlan, mode: Mode, num_cores: int,
            duration_s: float) -> dict:
    """Simulate one placement and distil its figures of merit.

    The schedule is uniform; when the app has triggered phases,
    :data:`EXPLORE_ABNORMAL_RATIO` of its beats are pathological.

    Args:
        app: the (already repaired) application ``plan`` places.
        plan: the placement.
        mode: execution mode of the simulation.
        num_cores: provisioned platform width.
        duration_s: simulated seconds.

    Returns:
        ``power_uw``, ``clock_mhz``, ``voltage``, ``required_mhz``,
        ``duty_cycle``, ``sync_overhead``, ``code_overhead``,
        ``im_banks`` and ``active_cores`` — the figure fields of
        :class:`ExplorationRecord`.
    """
    has_triggered = any(phase.trigger is Trigger.ON_ABNORMAL
                        for phase in app.phases)
    ratio = EXPLORE_ABNORMAL_RATIO if has_triggered else 0.0
    schedule = uniform_schedule(duration_s, app.fs, abnormal_ratio=ratio)
    result = simulate(app, mode, schedule, duration_s=duration_s,
                      num_cores=num_cores, mapping=plan)
    activity = result.activity
    provisioned = activity.cycles * activity.cores_on
    return {
        "power_uw": result.power.total_uw,
        "clock_mhz": result.operating_point.frequency_mhz,
        "voltage": result.operating_point.voltage,
        "required_mhz": result.required_mhz,
        "duty_cycle": activity.core_active_cycles / provisioned
        if provisioned > 0 else 0.0,
        "sync_overhead": result.runtime_overhead,
        "code_overhead": result.code_overhead,
        "im_banks": len(plan.im_banks_used),
        "active_cores": plan.active_cores,
    }


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
    status = STATUS_REPAIRED if repairs else STATUS_OK
    obs.add(f"gen.status.{status}")
    mode = Mode.MULTI_CORE if policy.multicore else Mode.SINGLE_CORE
    return ExplorationRecord(
        **base, status=status, repairs=repairs, simulated_s=duration_s,
        **measure(candidate, plan, mode, num_cores, duration_s))


def screen_policies(app: AppSpec,
                    policies: tuple[str, ...] = ("paper", "balanced"),
                    num_cores: int = 8,
                    duration_s: float = EXPLORE_DURATION_S,
                    token: str = "",
                    family: str = "") -> list[ExplorationRecord]:
    """Rank one app's multi-core placements by power; keep the least.

    Every distinct multi-core placement is simulated once
    (:func:`measure`); policies whose plans are equal share its
    figures.  The placement drawing the least power — the first in
    ``policies`` order on a tie — is reported ``ok``/``repaired``; the
    others come back ``screened``, with their own simulated figures.
    Single-core policies are not ranked and fall through to
    :func:`evaluate_app`.

    Args:
        app: the application to place.
        policies: mapping-policy names to rank.
        num_cores: provisioned platform width.
        duration_s: simulated seconds per placement.
        token: regeneration token recorded in the records.
        family: topology family recorded in the records.

    Returns:
        One record per policy, in ``policies`` order.

    Raises:
        ValueError: unknown policy.
    """
    repaired, repairs = repair_app(app, num_cores)
    base = dict(app=app.name, token=token, family=family,
                num_cores=num_cores)
    records: dict[str, ExplorationRecord] = {}
    measured: list[tuple[str, dict]] = []
    simulated: list[tuple[MappingPlan, dict]] = []
    for name in policies:
        policy = get_policy(name)
        if not policy.multicore:
            records[name] = evaluate_app(
                app, name, num_cores=num_cores, duration_s=duration_s,
                token=token, family=family)
            continue
        obs.add("gen.points")
        if repairs:
            obs.add("gen.repairs", repairs)
        try:
            plan = policy.map(repaired, num_cores)
        except MappingError as exc:
            obs.add(f"gen.status.{STATUS_REJECTED}")
            records[name] = ExplorationRecord(
                **base, policy=name, status=STATUS_REJECTED,
                repairs=repairs, error=str(exc))
            continue
        figures = next((f for done, f in simulated if done == plan), None)
        if figures is None:
            figures = measure(repaired, plan, Mode.MULTI_CORE, num_cores,
                              duration_s)
            simulated.append((plan, figures))
        measured.append((name, figures))
    if measured:
        obs.add("gen.screen.scored", len(measured))
        kept = min(range(len(measured)),
                   key=lambda index: measured[index][1]["power_uw"])
        for index, (name, figures) in enumerate(measured):
            status = STATUS_SCREENED
            if index == kept:
                status = STATUS_REPAIRED if repairs else STATUS_OK
            obs.add(f"gen.status.{status}")
            records[name] = ExplorationRecord(
                **base, policy=name, status=status, repairs=repairs,
                simulated_s=duration_s, **figures)
    return [records[name] for name in policies]


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
    "measure",
    "policy_rates",
    "repair_app",
    "screen_policies",
]
