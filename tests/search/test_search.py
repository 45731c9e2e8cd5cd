"""Tests for the stochastic search drivers and their wiring."""

import pytest

from repro.apps.phases import AppSpec, PhaseSpec, SectionSpec
from repro.gen import generate_app, get_policy
from repro.isa.layout import ImGeometry
from repro.search.anneal import (
    outcome_to_mapping,
    search_mapping,
    search_token,
)
from repro.search.cost import get_oracle


def test_gap_is_nonnegative_and_best_bounded_by_paper():
    for token in ("pipeline:7:0", "fan-in:7:2", "random-dag:7:4"):
        outcome = search_token(token, iterations=20, seed=3)
        assert outcome.status == "ok"
        assert outcome.paper_feasible
        assert outcome.gap >= 0.0
        assert outcome.best_cost <= outcome.paper_cost + 1e-9
        assert outcome.best_metrics["power_uw"] > 0


def test_greedy_never_worsens_the_start():
    outcome = search_token("fork-join:7:1", algorithm="greedy",
                           iterations=25, seed=5)
    assert outcome.best_cost <= outcome.start_cost + 1e-12
    assert outcome.gap >= 0.0


def test_search_is_deterministic_in_process():
    first = outcome_to_mapping(
        search_token("random-dag:7:4", iterations=20, seed=11))
    second = outcome_to_mapping(
        search_token("random-dag:7:4", iterations=20, seed=11))
    assert first == second


def test_memoisation_caps_simulation_count():
    outcome = search_token("pipeline:7:0", iterations=30, seed=2)
    # start + paper share one evaluation; every other simulation is a
    # distinct candidate, never re-paid
    assert outcome.evaluations <= outcome.iterations + 2


def test_rejected_when_nothing_fits():
    app = generate_app("pipeline", seed=7, index=0)
    outcome = search_mapping(
        app, geometry=ImGeometry(banks=1, words_per_bank=64),
        iterations=5, seed=0)
    assert outcome.status == "rejected"
    assert outcome.error
    assert outcome.best_plan is None
    assert outcome.evaluations == 0


def test_repair_path_trims_wide_apps():
    phases = [PhaseSpec(name="wide", cycles_per_sample=200.0,
                        dm_access_rate=0.3,
                        sections=(SectionSpec("w0", 200),),
                        replicas=12)]
    app = AppSpec(name="WIDE", fs=250.0, phases=phases)
    app.validate()
    outcome = search_mapping(app, num_cores=8, iterations=10, seed=4)
    assert outcome.status == "repaired"
    assert outcome.repairs == 4  # 12 replicas trimmed onto 8 cores
    assert outcome.best_plan is not None
    assert outcome.best_plan.active_cores <= 8


def test_infeasible_proposals_never_simulate():
    # one huge section per phase: most mutations overflow and the
    # pre-filter must discard them without an oracle call
    phases = [
        PhaseSpec(name=f"p{index}", cycles_per_sample=100.0,
                  dm_access_rate=0.3,
                  sections=(SectionSpec(f"s{index}", 3500),))
        for index in range(4)
    ]
    app = AppSpec(name="TIGHT", fs=250.0, phases=phases,
                  runtime_words=500)
    app.validate()
    outcome = search_mapping(app, iterations=40, seed=6)
    assert outcome.status == "ok"
    assert outcome.evaluations + outcome.infeasible <= \
        outcome.iterations + 2
    assert outcome.gap >= 0.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        search_token("pipeline:7:0", algorithm="nope")
    with pytest.raises(ValueError):
        search_token("pipeline:7:0", cost="nope")
    with pytest.raises(ValueError):
        search_token("pipeline:7:0", iterations=-1)
    with pytest.raises(ValueError):
        search_token("nope:7:0")
    with pytest.raises(ValueError):
        get_oracle("power", duration_s=0.0)


def test_oracle_kinds_score_differently():
    app = generate_app("pipeline", seed=7, index=0)
    plan = get_policy("paper").map(app)
    power = get_oracle("power", 1.0).evaluate(app, plan)
    clock = get_oracle("clock", 1.0).evaluate(app, plan)
    composite = get_oracle("composite", 1.0).evaluate(app, plan)
    assert power[0] == pytest.approx(power[1]["power_uw"])
    assert clock[0] == pytest.approx(clock[1]["clock_mhz"])
    assert composite[0] > power[0]  # power plus the clock term


def test_search_policy_family_is_deterministic():
    app = generate_app("fan-in", seed=9, index=2)
    policy = get_policy("search-anneal")
    first = policy.map(app)
    second = policy.map(app)
    assert first.multicore
    assert first.section_banks == second.section_banks
    assert first.assignments == second.assignments
    # the searched placement never uses more IM banks than the paper's
    paper = get_policy("paper").map(app)
    assert len(first.im_banks_used) <= len(paper.im_banks_used)
