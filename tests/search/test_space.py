"""Tests for the placement search space: candidates, repair, moves."""

import random

import pytest

from repro.apps.mapping import map_multicore, plan_required_mhz
from repro.apps.phases import AppSpec, PhaseSpec, SectionSpec
from repro.gen import generate_app
from repro.isa.layout import ImGeometry
from repro.search.space import (
    candidate_from_plan,
    candidate_required_mhz,
    candidate_to_mapping,
    make_candidate,
    normalize_cores,
    plan_from_candidate,
    propose,
    repair,
    slot_phases,
    violations,
)
from repro.sysc import Mode, simulate, uniform_schedule


def _app():
    return generate_app("random-dag", seed=21, index=3)


def _two_phase_app():
    phases = [
        PhaseSpec(name="a", cycles_per_sample=1000.0,
                  dm_access_rate=0.3,
                  sections=(SectionSpec("a0", 500),)),
        PhaseSpec(name="b", cycles_per_sample=600.0,
                  dm_access_rate=0.3,
                  sections=(SectionSpec("b0", 500),)),
    ]
    app = AppSpec(name="TWO", fs=250.0, phases=phases)
    app.validate()
    return app


def test_candidate_round_trips_through_plan():
    app = _app()
    plan = map_multicore(app)
    candidate = candidate_from_plan(plan)
    assert violations(app, candidate) == []
    back = plan_from_candidate(app, candidate)
    assert back.section_banks == plan.section_banks
    assert back.active_cores == plan.active_cores
    assert candidate_from_plan(back) == candidate


def test_normalize_relabels_in_first_use_order():
    assert normalize_cores((5, 2, 5, 7)) == (0, 1, 0, 2)
    # permuted core ids collapse onto one canonical candidate
    app = _two_phase_app()
    first = make_candidate({"a0": 0, "b0": 1}, [3, 6])
    second = make_candidate({"a0": 0, "b0": 1}, [0, 1])
    assert first == second
    assert slot_phases(app) == ["a", "b"]


def test_violations_catch_every_constraint():
    app = _two_phase_app()
    good = make_candidate({"a0": 0, "b0": 1}, [0, 1])
    assert violations(app, good) == []
    # core out of range
    bad = make_candidate({"a0": 0, "b0": 1}, [0, 1])
    bad = bad.__class__(section_banks=bad.section_banks, cores=(0, 9))
    assert violations(app, bad, num_cores=8)
    # bank out of range
    assert violations(app, make_candidate({"a0": 99, "b0": 1}, [0, 1]))
    # missing section
    assert violations(app, make_candidate({"a0": 0}, [0, 1]))
    # bank overflow (tiny geometry)
    tiny = ImGeometry(banks=2, words_per_bank=600)
    packed = make_candidate({"a0": 0, "b0": 0}, [0, 1])
    assert any("bank 0" in problem
               for problem in violations(app, packed, geometry=tiny))


def test_replica_collisions_are_detected_and_repaired():
    phases = [PhaseSpec(name="p", cycles_per_sample=100.0,
                        dm_access_rate=0.3,
                        sections=(SectionSpec("p0", 100),),
                        replicas=3)]
    app = AppSpec(name="REPL", fs=250.0, phases=phases)
    app.validate()
    colliding = make_candidate({"p0": 1}, [0, 0, 1])
    assert any("two replicas" in problem
               for problem in violations(app, colliding))
    fixed = repair(app, colliding)
    assert fixed is not None
    assert violations(app, fixed) == []
    assert len(set(fixed.cores)) == 3


def test_repair_sheds_im_overflow_deterministically():
    app = _two_phase_app()
    tiny = ImGeometry(banks=3, words_per_bank=900)
    # both 500-word sections on bank 0 next to the 300-word runtime
    broken = make_candidate({"a0": 0, "b0": 0}, [0, 1])
    fixed = repair(app, broken, geometry=tiny)
    assert fixed is not None
    assert violations(app, fixed, geometry=tiny) == []
    assert repair(app, broken, geometry=tiny) == fixed
    # a genuinely oversized app is irreparable
    impossible = ImGeometry(banks=1, words_per_bank=900)
    assert repair(app, broken, geometry=impossible) is None


def test_propose_only_yields_feasible_candidates():
    app = _app()
    candidate = candidate_from_plan(map_multicore(app))
    rng = random.Random(99)
    for _ in range(60):
        neighbour = propose(app, candidate, rng)
        if neighbour is None:
            continue
        assert violations(app, neighbour) == []
        candidate = neighbour


def test_propose_is_deterministic_per_seed():
    app = _app()
    start = candidate_from_plan(map_multicore(app))
    walks = []
    for _ in range(2):
        rng = random.Random(7)
        current = start
        walk = []
        for _ in range(20):
            current = propose(app, current, rng) or current
            walk.append(current.key())
        walks.append(walk)
    assert walks[0] == walks[1]


def test_coalesced_cores_pay_their_summed_clock():
    app = _two_phase_app()
    spread = plan_from_candidate(
        app, make_candidate({"a0": 0, "b0": 1}, [0, 1]))
    coalesced = plan_from_candidate(
        app, make_candidate({"a0": 0, "b0": 1}, [0, 0]))
    spread_mhz = plan_required_mhz(spread)
    coalesced_mhz = plan_required_mhz(coalesced)
    assert spread_mhz == pytest.approx(1000.0 * 250.0 / 1e6)
    assert coalesced_mhz == pytest.approx(1600.0 * 250.0 / 1e6)
    # the analytic bound matches the simulator's sizing exactly
    candidate = candidate_from_plan(coalesced)
    assert candidate_required_mhz(app, candidate) == \
        pytest.approx(coalesced_mhz)
    schedule = uniform_schedule(2.0, app.fs)
    result = simulate(app, Mode.MULTI_CORE, schedule, duration_s=2.0,
                      mapping=coalesced)
    assert result.required_mhz == pytest.approx(coalesced_mhz)


def test_candidate_to_mapping_is_json_ready():
    app = _app()
    candidate = candidate_from_plan(map_multicore(app))
    data = candidate_to_mapping(candidate)
    assert set(data) == {"section_banks", "cores"}
    assert all(isinstance(bank, int)
               for bank in data["section_banks"].values())
    assert data["cores"] == list(candidate.cores)
