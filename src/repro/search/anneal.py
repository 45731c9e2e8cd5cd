"""Seeded stochastic search drivers: annealing + greedy hill-climb.

:func:`search_mapping` walks the candidate space of
:mod:`repro.search.space` under a cost oracle of
:mod:`repro.search.cost`, starting from the best mapping policy that
places the application (the paper's placement when it fits, so the
reported gap is always >= 0).  Two algorithms ship:

* ``greedy`` — hill-climb: accept a neighbour iff it is no worse
  (plateau walks allowed);
* ``anneal`` — simulated annealing: also accept worse neighbours with
  probability ``exp(-relative delta / T)`` under a geometric
  temperature schedule, escaping the local minima greedy parks in.

Every stochastic choice draws from one ``random.Random(seed)``; costs
are memoised by candidate identity, and infeasible mutations are
discarded by the analytic pre-filter before any simulation — so a
search is a pure function of ``(app identity, parameters, seed)`` and
its outcome serialises byte-identically across processes and
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields

from .. import obs
from ..apps.mapping import MappingError, MappingPlan
from ..apps.phases import AppSpec
from ..gen.explorer import (
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_REPAIRED,
    repair_app,
)
from ..gen.generator import app_from_token, parse_app_token
from ..gen.policies import get_policy
from .cost import ORACLE_DURATION_S, get_oracle
from .space import (
    Candidate,
    candidate_from_plan,
    candidate_to_mapping,
    plan_from_candidate,
    propose,
)

#: Search algorithms :func:`search_mapping` accepts.
ALGORITHMS = ("anneal", "greedy")

#: Default proposal budget per search.
SEARCH_ITERATIONS = 48

#: Policies tried (in order) for the start candidate; ``paper`` first
#: so the best-found cost can never exceed the paper's and the gap is
#: >= 0 by construction whenever the paper's placement is feasible.
START_POLICIES = ("paper", "balanced", "critical-path")

#: Geometric temperature schedule of the annealer, in units of
#: relative cost (a 8 % uphill move starts ~37 % likely and becomes
#: vanishingly unlikely by the end).
ANNEAL_T0 = 0.08
ANNEAL_T_END = 0.004


@dataclass(frozen=True)
class SearchOutcome:
    """Everything one placement search produces.

    Attributes:
        app: application name.
        token: regeneration token (empty for literal apps).
        family: topology family (empty for literal apps).
        algorithm: search algorithm used.
        cost_kind: cost-oracle kind minimised.
        seed: RNG seed of the walk.
        iterations: proposal budget.
        num_cores: provisioned platform width.
        duration_s: simulated seconds per oracle call.
        status: ``ok`` / ``repaired`` / ``rejected``.
        repairs: replicas trimmed to fit the platform (app-level).
        error: placement error text (rejected searches only).
        start_policy: policy that produced the start candidate.
        paper_feasible: whether the paper's placement mapped at all.
        paper_cost: oracle cost of the paper's placement (0 when
            infeasible).
        start_cost: oracle cost of the start candidate.
        best_cost: oracle cost of the best candidate found.
        gap: relative improvement over the reference placement
            (paper's when feasible, else the start candidate);
            >= 0 by construction.
        evaluations: full simulations paid (memoised; <= iterations
            plus the start/paper evaluations).
        accepted: proposals accepted by the walk.
        infeasible: proposals the analytic pre-filter discarded
            unrepaired (never simulated).
        best_metrics: simulator metrics of the best candidate.
        best_candidate: canonical JSON form of the best candidate.
        best_plan: the best placement as a simulator-ready plan
            (``None`` for rejected searches; excluded from
            artifacts).
    """

    app: str
    token: str
    family: str
    algorithm: str
    cost_kind: str
    seed: int
    iterations: int
    num_cores: int
    duration_s: float
    status: str
    repairs: int = 0
    error: str = ""
    start_policy: str = ""
    paper_feasible: bool = False
    paper_cost: float = 0.0
    start_cost: float = 0.0
    best_cost: float = 0.0
    gap: float = 0.0
    evaluations: int = 0
    accepted: int = 0
    infeasible: int = 0
    best_metrics: dict = field(default_factory=dict)
    best_candidate: dict = field(default_factory=dict)
    best_plan: MappingPlan | None = None


def outcome_to_mapping(outcome: SearchOutcome) -> dict:
    """JSON-ready form of an outcome (``best_plan`` excluded)."""
    mapping = {item.name: getattr(outcome, item.name)
               for item in fields(outcome) if item.name != "best_plan"}
    mapping["best_metrics"] = dict(outcome.best_metrics)
    mapping["best_candidate"] = dict(outcome.best_candidate)
    return mapping


def search_mapping(app: AppSpec, num_cores: int = 8,
                   algorithm: str = "anneal", cost: str = "power",
                   iterations: int = SEARCH_ITERATIONS, seed: int = 0,
                   duration_s: float = ORACLE_DURATION_S,
                   token: str = "", family: str = "") -> SearchOutcome:
    """Search for a better placement of one application.

    Args:
        app: the application to place (trimmed via
            :func:`repro.gen.explorer.repair_app` when it needs more
            cores than the platform has).
        num_cores: provisioned platform width.
        algorithm: one of :data:`ALGORITHMS`.
        cost: cost-oracle kind (see :data:`repro.search.cost.ORACLE_KINDS`).
        iterations: proposal budget of the walk.
        seed: RNG seed (the whole search is a pure function of the
            app identity, the parameters and this seed).
        duration_s: simulated seconds per oracle call.
        token: regeneration token recorded in the outcome.
        family: topology family recorded in the outcome.

    Returns:
        The search outcome; ``status == "rejected"`` when no policy
        places the app at all.

    Raises:
        ValueError: unknown algorithm/cost kind or negative budget.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown search algorithm {algorithm!r}; choose from "
            f"{list(ALGORITHMS)}")
    if iterations < 0:
        raise ValueError("iteration budget cannot be negative")
    oracle = get_oracle(cost, duration_s)
    candidate_app, repairs = repair_app(app, num_cores)
    base = dict(app=app.name, token=token, family=family,
                algorithm=algorithm, cost_kind=cost, seed=seed,
                iterations=iterations, num_cores=num_cores,
                duration_s=duration_s)

    memo: dict[Candidate, tuple[float, dict]] = {}
    evaluations = 0
    memo_hits = 0

    def cost_of(candidate: Candidate) -> tuple[float, dict]:
        nonlocal evaluations, memo_hits
        hit = memo.get(candidate)
        if hit is None:
            plan = plan_from_candidate(candidate_app, candidate)
            hit = oracle.evaluate(candidate_app, plan, num_cores)
            memo[candidate] = hit
            evaluations += 1
        else:
            memo_hits += 1
        return hit

    start: Candidate | None = None
    start_policy = ""
    paper_feasible = False
    paper_cost = 0.0
    error = ""
    for name in START_POLICIES:
        try:
            plan = get_policy(name).map(candidate_app, num_cores)
        except MappingError as exc:
            error = str(exc)
            continue
        candidate = candidate_from_plan(plan)
        if name == "paper":
            paper_feasible = True
            paper_cost, _ = cost_of(candidate)
        start = candidate
        start_policy = name
        break  # first feasible policy wins; paper is tried first
    if start is None:
        obs.add("search.walks")
        obs.add("search.rejected")
        if repairs:
            obs.add("search.repairs", repairs)
        return SearchOutcome(**base, status=STATUS_REJECTED,
                             repairs=repairs, error=error)

    start_cost, _ = cost_of(start)
    current, current_cost = start, start_cost
    best, best_cost = start, start_cost
    rng = random.Random(seed)
    accepted = 0
    infeasible = 0
    for step in range(iterations):
        neighbour = propose(candidate_app, current, rng, num_cores)
        if neighbour is None:
            infeasible += 1
            continue
        neighbour_cost, _ = cost_of(neighbour)
        delta = neighbour_cost - current_cost
        take = delta <= 0.0
        if not take and algorithm == "anneal":
            scale = max(abs(current_cost), 1e-9)
            frac = step / max(iterations - 1, 1)
            temperature = ANNEAL_T0 * (ANNEAL_T_END / ANNEAL_T0) ** frac
            take = rng.random() < math.exp(-(delta / scale)
                                           / temperature)
        if take:
            current, current_cost = neighbour, neighbour_cost
            accepted += 1
            if neighbour_cost < best_cost:
                best, best_cost = neighbour, neighbour_cost

    best_cost, best_metrics = cost_of(best)
    obs.add("search.walks")
    obs.add("search.proposals", iterations)
    obs.add("search.accepted", accepted)
    obs.add("search.infeasible", infeasible)
    obs.add("search.evaluations", evaluations)
    obs.add("search.memo_hits", memo_hits)
    if repairs:
        obs.add("search.repairs", repairs)
    reference = paper_cost if paper_feasible else start_cost
    gap = (reference - best_cost) / reference if reference > 0 else 0.0
    return SearchOutcome(
        **base,
        status=STATUS_REPAIRED if repairs else STATUS_OK,
        repairs=repairs,
        start_policy=start_policy,
        paper_feasible=paper_feasible,
        paper_cost=paper_cost,
        start_cost=start_cost,
        best_cost=best_cost,
        gap=max(gap, 0.0),
        evaluations=evaluations,
        accepted=accepted,
        infeasible=infeasible,
        best_metrics=dict(best_metrics),
        best_candidate=candidate_to_mapping(best),
        best_plan=plan_from_candidate(candidate_app, best),
    )


def search_token(token: str, num_cores: int = 8,
                 algorithm: str = "anneal", cost: str = "power",
                 iterations: int = SEARCH_ITERATIONS, seed: int = 0,
                 duration_s: float = ORACLE_DURATION_S) -> SearchOutcome:
    """Regenerate an app from its token and search its placements.

    Raises:
        ValueError: malformed token, unknown family/algorithm/cost.
    """
    family, _, _, _ = parse_app_token(token)
    app = app_from_token(token)
    return search_mapping(app, num_cores=num_cores, algorithm=algorithm,
                          cost=cost, iterations=iterations, seed=seed,
                          duration_s=duration_s, token=token,
                          family=family)
