"""Run families the sweep engine can execute.

Each runner is a pure function ``point -> metrics``: it takes one flat
parameter mapping produced by :func:`repro.sweep.spec.expand` and
returns a flat, JSON-serialisable metric mapping.  Purity is what the
cache relies on — a runner must depend only on its point (plus the
code the fingerprint covers), never on ambient state.

Families:

* ``app`` — one (benchmark, mode) system-level simulation through
  :func:`repro.sysc.engine.simulate`; axes reach the application
  (``app``, ``ratio``), the platform (``num_cores``), the VFS planner
  (``floor_mhz``) and the input (``duration_s``).
* ``fleet`` — one multi-node scenario through
  :func:`repro.net.fleet.run_fleet`; axes reach the scenario preset,
  sync protocol, fleet size, duration and seed.  Runs serially inside
  the sweep worker (the sweep's processes are the parallelism).
* ``fleet-gen`` — one *heterogeneous* fleet whose nodes draw
  generated apps from a seeded suite
  (:func:`repro.net.scenarios.generated_scenario`); axes reach the
  base preset, suite identity (``suite_seed`` / ``suite_count`` /
  ``families`` as a ``+``-joined token), the mapping policy and every
  ``fleet`` axis.  Points stay JSON scalars: the scenario is rebuilt
  from its parameters inside the runner.  Reports
  ``distinct_families`` (named apart from the ``families`` axis so
  CSV headers never collide), ``mean_floor_mhz`` and ``repairs`` on
  top of the ``fleet`` metrics.
* ``fleet-tiers`` — one *hierarchical* fleet through the streaming
  executor (:func:`repro.net.streaming.run_streaming`); the
  deployment rides in the point as its ``tiers`` token (preset name
  or ``tiers:...`` form), so points stay JSON scalars.  Reports the
  tier count and each tier's steady-state hop error on top of the
  ``fleet`` metrics.
* ``platform`` — the cycle-accurate :class:`repro.hw.system.System`
  running a spin kernel; axes reach core count and cycle budget.
* ``ablation`` — one mechanism ablation from
  :mod:`repro.eval.ablations`.
* ``gen`` — one generated application under one mapping policy
  through :func:`repro.gen.explorer.evaluate_token`; the app rides in
  the point as its regeneration token (``"family:seed:index"``), so
  points stay JSON scalars and regeneration is deterministic.
* ``cover`` — the ``gen`` runner plus coverage classification
  (:mod:`repro.cover.model`): tokens may carry adversarial shape
  knobs (``"random-dag:7:0:depth=10+fanin=6"``), and every point
  reports its deterministic coverage-bin key alongside the explorer
  metrics.
* ``search`` — one stochastic placement search through
  :func:`repro.search.search_token`; axes reach the app token, the
  algorithm (``anneal``/``greedy``), the cost oracle, the proposal
  budget and the walk seed.  ``simulated_s`` counts the oracle calls
  actually paid (memoised duplicates are free).

Every metric mapping carries ``simulated_s``: the simulated seconds
the point covered, the numerator of the benchmark schema's
simulated-seconds-per-second throughput figure.  The ``platform``
family counts cycles, reported as seconds at the 1 MHz platform floor
clock.
"""

from __future__ import annotations

from typing import Callable

from ..eval.ablations import (
    ablate_broadcast,
    ablate_lockstep_recovery,
    ablate_sleep,
    ablate_vfs,
)
from ..cover.model import bin_key, classify
from ..gen.explorer import EXPLORE_DURATION_S, evaluate_token
from ..gen.generator import app_from_token
from ..hw.system import System
from ..isa.assembler import assemble
from ..net.fleet import run_fleet
from ..net.node import APPS
from ..net.scenarios import generated_scenario
from ..net.stats import improvement_ratio
from ..net.streaming import run_streaming
from ..power.vfs import MIN_SYSTEM_CLOCK_MHZ
from ..search.anneal import SEARCH_ITERATIONS, search_token
from ..search.cost import ORACLE_DURATION_S
from ..sysc.engine import Mode, simulate, uniform_schedule
from .spec import Value, stable_seed

#: Benchmark-application factories, keyed by Table I name — the same
#: registry fleet nodes draw from (every factory takes the
#: pathological-beat ratio; the fixed filtering chains ignore it).
APP_FACTORIES: dict[str, Callable] = APPS

#: Default pathological ratio per application (Table I settings).
_DEFAULT_RATIO = {"3L-MF": 0.0, "3L-MMD": 0.0, "RP-CLASS": 0.20}

#: Spin kernel of the platform family (same shape as the platform
#: microbenchmarks' countdown loop, but endless so every point runs
#: its full cycle budget and the cycle count is budget-exact).
_SPIN_SOURCE = """
main:
    li r1, 1
loop:
    addi r1, r1, 1
    bnez r1, loop
    halt
"""

#: Metric columns the compact table renderer shows per family.
HEADLINE_METRICS: dict[str, tuple[str, ...]] = {
    "app": ("power_uw", "clock_mhz", "voltage", "runtime_overhead"),
    "fleet": (
        "mean_power_uw",
        "steady_sync_ms",
        "steady_unsync_ms",
        "improvement",
    ),
    "fleet-gen": (
        "mean_power_uw",
        "mean_floor_mhz",
        "steady_sync_ms",
        "improvement",
        "distinct_families",
        "repairs",
    ),
    "fleet-tiers": (
        "n_nodes",
        "mean_power_uw",
        "steady_sync_ms",
        "steady_unsync_ms",
        "improvement",
        "tiers",
    ),
    "platform": ("cycles", "im_broadcast", "active_cycles"),
    "ablation": ("with_uw", "without_uw", "penalty"),
    "gen": (
        "status",
        "power_uw",
        "clock_mhz",
        "duty_cycle",
        "sync_overhead",
    ),
    "cover": (
        "status",
        "depth",
        "fan_in",
        "sharing",
        "power_uw",
    ),
    "search": (
        "status",
        "paper_cost",
        "best_cost",
        "gap",
        "evaluations",
    ),
}


class RunnerError(ValueError):
    """A point carries parameters its runner cannot execute."""


def _param(point: dict, name: str, default: Value) -> Value:
    value = point.get(name, default)
    return default if value is None else value


def run_app_point(point: dict[str, Value]) -> dict[str, Value]:
    """Simulate one (application, mode) configuration."""
    app_name = str(_param(point, "app", "3L-MF"))
    if app_name not in APP_FACTORIES:
        raise RunnerError(
            f"unknown app {app_name!r}; choose from "
            f"{sorted(APP_FACTORIES)}"
        )
    mode_name = str(_param(point, "mode", Mode.MULTI_CORE.value))
    try:
        mode = Mode(mode_name)
    except ValueError:
        raise RunnerError(
            f"unknown mode {mode_name!r}; choose from "
            f"{sorted(m.value for m in Mode)}"
        ) from None
    ratio = float(_param(point, "ratio", _DEFAULT_RATIO[app_name]))
    duration_s = float(_param(point, "duration_s", 10.0))
    num_cores = int(_param(point, "num_cores", 8))
    floor_mhz = float(_param(point, "floor_mhz", MIN_SYSTEM_CLOCK_MHZ))
    app = APP_FACTORIES[app_name](ratio)
    schedule = uniform_schedule(duration_s, app.fs, abnormal_ratio=ratio)
    result = simulate(
        app,
        mode,
        schedule,
        duration_s=duration_s,
        num_cores=num_cores,
        floor_mhz=floor_mhz,
    )
    metrics: dict[str, Value] = {
        "simulated_s": duration_s,
        "power_uw": result.power.total_uw,
        "clock_mhz": result.operating_point.frequency_mhz,
        "voltage": result.operating_point.voltage,
        "required_mhz": result.required_mhz,
        "active_cores": result.mapping.active_cores,
        "im_broadcast": result.im_broadcast_fraction,
        "dm_broadcast": result.dm_broadcast_fraction,
        "code_overhead": result.code_overhead,
        "runtime_overhead": result.runtime_overhead,
        "max_latency_s": result.max_latency_s,
    }
    for category, power_uw in result.power.categories.items():
        metrics[f"power_{category}_uw"] = power_uw
    return metrics


def _run_fleet_summary(scenario, point: dict[str, Value], stream: str):
    """Run one fleet (serially); return (seed, duration_s, summary)."""
    duration_s = float(_param(point, "duration_s", 5.0))
    nodes = point.get("nodes")
    protocol = point.get("protocol")
    seed = point.get("seed")
    if seed is None:
        seed = stable_seed(stream, dict(point))
    result = run_fleet(
        scenario,
        n_nodes=None if nodes is None else int(nodes),
        duration_s=duration_s,
        seed=int(seed),
        protocol=None if protocol is None else str(protocol),
        workers=1,
    )
    return int(seed), duration_s, result.summary


def _fleet_metrics(
    seed: int, summary, duration_s: float
) -> dict[str, Value]:
    """Flatten one fleet summary into the shared metric mapping."""
    improvement = improvement_ratio(
        summary.steady_unsync.mean_abs_s, summary.steady_sync.mean_abs_s
    )
    return {
        "simulated_s": duration_s * summary.n_nodes,
        "n_nodes": summary.n_nodes,
        "protocol": summary.protocol,
        "seed": seed,
        "mean_power_uw": summary.mean_power_uw,
        "mean_radio_uw": summary.mean_radio_uw,
        "beacons_sent": summary.beacons_sent,
        "beacons_heard": summary.beacons_heard,
        "power_loss_resets": summary.power_loss_resets,
        "sync_ms": summary.sync.mean_abs_s * 1e3,
        "unsync_ms": summary.unsync.mean_abs_s * 1e3,
        "steady_sync_ms": summary.steady_sync.mean_abs_s * 1e3,
        "steady_unsync_ms": summary.steady_unsync.mean_abs_s * 1e3,
        "improvement": improvement,
    }


def run_fleet_point(point: dict[str, Value]) -> dict[str, Value]:
    """Simulate one multi-node fleet scenario (serially)."""
    scenario = str(_param(point, "scenario", "drifting-wearables"))
    seed, duration_s, summary = _run_fleet_summary(
        scenario, point, "fleet"
    )
    return _fleet_metrics(seed, summary, duration_s)


def run_fleet_gen_point(point: dict[str, Value]) -> dict[str, Value]:
    """Simulate one heterogeneous generated-app fleet (serially).

    The scenario never travels inside the point: it is rebuilt from
    the base preset and the suite parameters
    (:func:`repro.net.scenarios.generated_scenario`), so points stay
    JSON-scalar and the cache key covers the fleet's full identity.
    On top of the ``fleet`` metrics, the point reports the number of
    distinct app families the fleet bound (``distinct_families``),
    the mean per-app clock floor and the replicas trimmed by
    placement repair.
    """
    base = str(_param(point, "scenario", "drifting-wearables"))
    suite_seed = int(_param(point, "suite_seed", 7))
    suite_count = int(_param(point, "suite_count", 8))
    families = point.get("families")
    cycle = tuple(str(families).split("+")) if families else None
    policy = str(_param(point, "policy", "balanced"))
    num_cores = int(_param(point, "num_cores", 8))
    try:
        scenario = generated_scenario(
            base=base,
            seed=suite_seed,
            count=suite_count,
            policy=policy,
            families=cycle,
            num_cores=num_cores,
        )
    except ValueError as exc:
        raise RunnerError(str(exc)) from None
    seed, duration_s, summary = _run_fleet_summary(
        scenario, point, "fleet-gen"
    )
    metrics = _fleet_metrics(seed, summary, duration_s)
    nodes = summary.n_nodes
    weighted_floor = sum(
        group.nodes * group.mean_floor_mhz for group in summary.families
    )
    metrics["scenario_token"] = summary.scenario
    metrics["distinct_families"] = len(summary.families)
    metrics["mean_floor_mhz"] = weighted_floor / nodes if nodes else 0.0
    repairs = sum(group.repairs for group in summary.families)
    metrics["repairs"] = repairs
    return metrics


def run_fleet_tiers_point(point: dict[str, Value]) -> dict[str, Value]:
    """Stream one hierarchical fleet (serially).

    The deployment never travels inside the point: ``tiers`` is a
    preset name or round-trip token resolved by
    :func:`repro.net.hierarchy.parse_hierarchy`, so points stay
    JSON-scalar and the cache key covers the hierarchy's full
    identity.  On top of the shared fleet metrics, the point reports
    the tier count and each tier's steady-state single-hop error.
    """
    token = str(_param(point, "tiers", "ward-campus"))
    duration_s = float(_param(point, "duration_s", 4.0))
    seed = point.get("seed")
    if seed is None:
        seed = stable_seed("fleet-tiers", dict(point))
    try:
        result = run_streaming(
            token, duration_s=duration_s, seed=int(seed), workers=1
        )
    except ValueError as exc:
        raise RunnerError(str(exc)) from None
    metrics = _fleet_metrics(int(seed), result.summary, duration_s)
    metrics["scenario_token"] = result.token
    metrics["tiers"] = len(result.tiers)
    for tier in result.tiers:
        metrics[f"steady_hop_{tier.name}_ms"] = (
            tier.steady_hop_sync.mean_abs_s * 1e3
        )
    return metrics


def run_platform_point(point: dict[str, Value]) -> dict[str, Value]:
    """Run the cycle-accurate platform on a spin kernel."""
    cores = int(_param(point, "cores", 8))
    cycles = int(_param(point, "cycles", 20_000))
    if cores < 1:
        raise RunnerError("platform needs at least one core")
    if cores == 1:
        system = System.singlecore()
        image = assemble(_SPIN_SOURCE)
    else:
        system = System.multicore(num_cores=cores)
        entries = "\n".join(f".entry {core}, main" for core in range(cores))
        image = assemble(entries + _SPIN_SOURCE)
    system.load(image)
    system.run(cycles)
    activity = system.activity()
    return {
        # Cycle count rendered as seconds at the 1 MHz platform floor.
        "simulated_s": system.cycle / 1e6,
        "cycles": system.cycle,
        "active_cycles": sum(activity.core_active_cycles),
        "instructions": activity.instructions,
        "im_broadcast": activity.im_broadcast_fraction,
    }


def run_gen_point(point: dict[str, Value]) -> dict[str, Value]:
    """Evaluate one generated app under one mapping policy.

    The app never travels inside the point: ``gen_app`` is a
    regeneration token (``"family:seed:index"``), so the point stays
    JSON-scalar and the cache key covers the app's full identity.
    """
    token = str(_param(point, "gen_app", "pipeline:2014:0"))
    policy = str(_param(point, "policy", "paper"))
    num_cores = int(_param(point, "num_cores", 8))
    duration_s = float(_param(point, "duration_s", EXPLORE_DURATION_S))
    try:
        record = evaluate_token(
            token, policy, num_cores=num_cores, duration_s=duration_s
        )
    except ValueError as exc:
        raise RunnerError(str(exc)) from None
    return {
        "simulated_s": record.simulated_s,
        "app": record.app,
        "family": record.family,
        "status": record.status,
        "repairs": record.repairs,
        "error": record.error,
        "required_mhz": record.required_mhz,
        "clock_mhz": record.clock_mhz,
        "voltage": record.voltage,
        "power_uw": record.power_uw,
        "duty_cycle": record.duty_cycle,
        "sync_overhead": record.sync_overhead,
        "code_overhead": record.code_overhead,
        "active_cores": record.active_cores,
        "im_banks": record.im_banks,
    }


def run_cover_point(point: dict[str, Value]) -> dict[str, Value]:
    """Evaluate one (possibly shaped) token and classify its bin.

    The ``gen`` runner's metrics plus the coverage labels of
    :mod:`repro.cover.model`: the bin key and each structural axis
    as its own column, so CSV artifacts can pivot on them.
    """
    token = str(_param(point, "gen_app", "random-dag:7:0:depth=10"))
    policy = str(_param(point, "policy", "paper"))
    num_cores = int(_param(point, "num_cores", 8))
    duration_s = float(_param(point, "duration_s", EXPLORE_DURATION_S))
    try:
        app = app_from_token(token)
        record = evaluate_token(
            token, policy, num_cores=num_cores, duration_s=duration_s
        )
    except ValueError as exc:
        raise RunnerError(str(exc)) from None
    labels = classify(app, record)
    return {
        "simulated_s": record.simulated_s,
        "app": record.app,
        "family": record.family,
        "status": record.status,
        "bin": bin_key(labels),
        "depth": labels[1],
        "fan_in": labels[2],
        "sharing": labels[3],
        "replica_band": labels[5],
        "repairs": record.repairs,
        "error": record.error,
        "required_mhz": record.required_mhz,
        "clock_mhz": record.clock_mhz,
        "power_uw": record.power_uw,
        "duty_cycle": record.duty_cycle,
        "sync_overhead": record.sync_overhead,
        "active_cores": record.active_cores,
        "im_banks": record.im_banks,
    }


def run_search_point(point: dict[str, Value]) -> dict[str, Value]:
    """Search one generated app's placements (seeded, memoised).

    The walk seed defaults to the point's stable identity hash, so a
    campaign that omits ``seed`` still reproduces byte-identically
    while distinct points draw distinct walks.
    """
    token = str(_param(point, "gen_app", "pipeline:2014:0"))
    algorithm = str(_param(point, "algorithm", "anneal"))
    cost = str(_param(point, "cost", "power"))
    iterations = int(_param(point, "iterations", SEARCH_ITERATIONS))
    num_cores = int(_param(point, "num_cores", 8))
    duration_s = float(_param(point, "duration_s", ORACLE_DURATION_S))
    seed = point.get("seed")
    if seed is None:
        seed = stable_seed("search", dict(point))
    try:
        outcome = search_token(
            token,
            num_cores=num_cores,
            algorithm=algorithm,
            cost=cost,
            iterations=iterations,
            seed=int(seed),
            duration_s=duration_s,
        )
    except ValueError as exc:
        raise RunnerError(str(exc)) from None
    metrics: dict[str, Value] = {
        "simulated_s": outcome.evaluations * duration_s,
        "app": outcome.app,
        "family": outcome.family,
        "status": outcome.status,
        "repairs": outcome.repairs,
        "error": outcome.error,
        "start_policy": outcome.start_policy,
        "paper_feasible": outcome.paper_feasible,
        "paper_cost": outcome.paper_cost,
        "start_cost": outcome.start_cost,
        "best_cost": outcome.best_cost,
        "gap": outcome.gap,
        "evaluations": outcome.evaluations,
        "accepted": outcome.accepted,
        "infeasible": outcome.infeasible,
        "seed": int(seed),
    }
    for key, value in sorted(outcome.best_metrics.items()):
        metrics[f"best_{key}"] = value
    return metrics


#: Ablation registry: name -> (driver, result picker).  ``sleep``
#: returns one result per benchmark; the picker selects by the
#: point's ``app`` parameter.
_ABLATIONS: dict[str, Callable] = {
    "broadcast": ablate_broadcast,
    "vfs": ablate_vfs,
    "sleep": ablate_sleep,
    "lockstep": ablate_lockstep_recovery,
}


def run_ablation_point(point: dict[str, Value]) -> dict[str, Value]:
    """Run one mechanism ablation."""
    name = str(_param(point, "ablation", "broadcast"))
    if name not in _ABLATIONS:
        raise RunnerError(
            f"unknown ablation {name!r}; choose from {sorted(_ABLATIONS)}"
        )
    duration_s = float(_param(point, "duration_s", 10.0))
    outcome = _ABLATIONS[name](duration_s)
    if isinstance(outcome, list):
        # ``sleep`` ablates every benchmark; the ``app`` parameter
        # picks one (descriptions carry the benchmark name).
        wanted = point.get("app")
        matches = [
            result
            for result in outcome
            if wanted is not None and str(wanted) in result.description
        ]
        result = matches[0] if matches else outcome[0]
        simulated = duration_s * len(outcome)
    else:
        result = outcome
        simulated = duration_s
    return {
        "simulated_s": simulated,
        "name": result.name,
        "with_uw": result.with_feature_uw,
        "without_uw": result.without_feature_uw,
        "penalty": result.penalty_fraction,
    }


#: Run-family registry the engine dispatches through.
RUNNERS: dict[str, Callable[[dict], dict]] = {
    "app": run_app_point,
    "fleet": run_fleet_point,
    "fleet-gen": run_fleet_gen_point,
    "fleet-tiers": run_fleet_tiers_point,
    "platform": run_platform_point,
    "ablation": run_ablation_point,
    "gen": run_gen_point,
    "cover": run_cover_point,
    "search": run_search_point,
}


def get_runner(name: str) -> Callable[[dict], dict]:
    """Look up a run family.

    Raises:
        RunnerError: unknown family name.
    """
    try:
        return RUNNERS[name]
    except KeyError:
        raise RunnerError(
            f"unknown runner {name!r}; choose from {sorted(RUNNERS)}"
        ) from None
