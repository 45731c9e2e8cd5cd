"""Tests for the mapping-policy explorer."""

import dataclasses

import pytest

from repro.apps import three_lead_mf
from repro.apps.phases import AppSpec, PhaseSpec, SectionSpec
from repro.gen import (
    app_from_token,
    evaluate_app,
    evaluate_token,
    explore,
    generate_app,
    get_policy,
    repair_app,
    suite_tokens,
)
from repro.gen.explorer import (
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_REPAIRED,
    STATUS_SCREENED,
    ExplorationRecord,
    policy_rates,
    screen_policies,
)
from repro.search.space import candidate_from_plan

from .screen import screen_tokens


def _wide_app(replicas):
    app = AppSpec(
        name="WIDE",
        fs=250.0,
        phases=[PhaseSpec(
            name="w",
            cycles_per_sample=1000.0,
            dm_access_rate=0.3,
            sections=(SectionSpec("w0", 1000),),
            replicas=replicas,
            lockstep_alignment=0.5,
        )],
    )
    app.validate()
    return app


def test_repair_trims_widest_group_first():
    app = _wide_app(12)
    repaired, trimmed = repair_app(app, num_cores=8)
    assert trimmed == 4
    assert repaired.phases[0].replicas == 8
    # Fitting apps pass through untouched (same object).
    untouched, zero = repair_app(_wide_app(4), num_cores=8)
    assert zero == 0
    assert untouched.phases[0].replicas == 4


def test_repair_stops_at_minimal_groups():
    app = AppSpec(
        name="MANY", fs=250.0,
        phases=[PhaseSpec(
            name=f"p{i}", cycles_per_sample=100.0, dm_access_rate=0.3,
            sections=(SectionSpec(f"s{i}", 500),))
            for i in range(10)])
    app.validate()
    repaired, trimmed = repair_app(app, num_cores=8)
    assert trimmed == 0  # nothing to trim: all groups are width 1


def test_evaluate_reports_repaired_status():
    record = evaluate_app(_wide_app(12), "paper", num_cores=8,
                          duration_s=1.0)
    assert record.status == STATUS_REPAIRED
    assert record.repairs == 4
    assert record.active_cores == 8
    assert record.power_uw > 0
    assert record.simulated_s == 1.0


def test_evaluate_reports_ok_with_figures_of_merit():
    app = generate_app("fork-join", seed=3, index=1)
    record = evaluate_app(app, "balanced", duration_s=1.0)
    assert record.status == STATUS_OK
    assert record.clock_mhz >= 1.0  # platform floor
    assert 0.4 <= record.voltage <= 1.2
    assert 0 < record.duty_cycle <= 1.0
    assert record.power_uw > 0
    assert record.sync_overhead >= 0
    assert record.im_banks >= 1


def test_evaluate_rejects_unmappable_and_keeps_error():
    app = AppSpec(
        name="FAT", fs=250.0,
        phases=[PhaseSpec(
            name=f"p{i}", cycles_per_sample=100.0, dm_access_rate=0.3,
            sections=(SectionSpec(f"s{i}", 4000),))
            for i in range(8)])
    app.validate()
    record = evaluate_app(app, "balanced", duration_s=1.0)
    assert record.status == STATUS_REJECTED
    assert record.error
    assert record.power_uw == 0.0
    assert record.simulated_s == 0.0


def test_single_core_policy_runs_baseline_mode():
    app = generate_app("independent", seed=3, index=0)
    record = evaluate_app(app, "single-core", duration_s=1.0)
    assert record.status == STATUS_OK
    assert record.active_cores == 1
    assert record.sync_overhead == 0.0
    assert record.duty_cycle > 0.9  # baseline core sized to the load


def test_evaluate_token_matches_evaluate_app():
    token = suite_tokens(5, 1)[0]
    by_token = evaluate_token(token, "balanced", duration_s=1.0)
    app = generate_app("pipeline", 5, 0)
    direct = evaluate_app(app, "balanced", duration_s=1.0,
                          token=token, family="pipeline")
    assert by_token == direct


def test_policy_rates_standing_metric():
    """Reject/repair rates aggregate per policy over any record set."""
    def record(policy, status, repairs=0):
        return ExplorationRecord(
            app="A", token="", family="", policy=policy, num_cores=8,
            status=status, repairs=repairs)

    rates = policy_rates([
        record("paper", STATUS_OK),
        record("paper", STATUS_REJECTED),
        record("paper", STATUS_REPAIRED, repairs=2),
        record("balanced", STATUS_OK),
    ])
    assert list(rates) == ["paper", "balanced"]  # first-seen order
    paper = rates["paper"]
    assert paper["points"] == 3
    assert paper["rejected"] == 1 and paper["repaired"] == 1
    assert paper["replicas_trimmed"] == 2
    assert paper["reject_rate"] == pytest.approx(1 / 3)
    assert paper["repair_rate"] == pytest.approx(1 / 3)
    balanced = rates["balanced"]
    assert balanced["reject_rate"] == 0.0
    assert balanced["repair_rate"] == 0.0
    assert policy_rates([]) == {}


def test_policy_rates_cover_real_explorations():
    tokens = suite_tokens(5, 2)
    records = explore(tokens, policies=("paper", "balanced"),
                      duration_s=1.0)
    rates = policy_rates(records)
    assert set(rates) == {"paper", "balanced"}
    for entry in rates.values():
        assert entry["points"] == 2
        assert entry["ok"] + entry["repaired"] + entry["rejected"] == 2
        assert 0.0 <= entry["reject_rate"] <= 1.0


def test_explore_is_app_major_and_validates_policies():
    tokens = suite_tokens(5, 2)
    records = explore(tokens, policies=("paper", "balanced"),
                      duration_s=1.0)
    assert [(r.token, r.policy) for r in records] == [
        (tokens[0], "paper"), (tokens[0], "balanced"),
        (tokens[1], "paper"), (tokens[1], "balanced"),
    ]
    with pytest.raises(ValueError):
        explore(tokens, policies=("nope",), duration_s=1.0)


def test_screen_policies_keeps_the_least_power():
    tokens = suite_tokens(5, 6)
    policies = ("paper", "balanced", "critical-path")
    records = screen_tokens(tokens, policies=policies, duration_s=1.0)
    assert [(r.token, r.policy) for r in records] == [
        (token, policy) for token in tokens for policy in policies]
    screened_apps = 0
    for token in tokens:
        per_app = [r for r in records if r.token == token]
        placed = [r for r in per_app if r.status != STATUS_REJECTED]
        kept = [r for r in placed if r.status != STATUS_SCREENED]
        screened = [r for r in placed if r.status == STATUS_SCREENED]
        assert len(kept) == (1 if placed else 0)
        for record in screened:
            assert kept[0].power_uw <= record.power_uw
        for record in placed:
            assert record.simulated_s == 1.0
        screened_apps += bool(screened)
    assert screened_apps > 0


def test_screened_records_equal_evaluate_app():
    tokens = suite_tokens(5, 6)
    records = screen_tokens(tokens, policies=("paper", "balanced"),
                            duration_s=1.0)
    screened = 0
    for record in records:
        exact = evaluate_app(app_from_token(record.token), record.policy,
                             duration_s=1.0)
        if record.status == STATUS_SCREENED:
            screened += 1
            assert exact.status in (STATUS_OK, STATUS_REPAIRED)
            exact = dataclasses.replace(exact, status=record.status)
        assert dataclasses.replace(record, token="", family="") == exact
    assert screened > 0


def test_screen_policies_keeps_first_policy_on_a_tie():
    app = three_lead_mf()
    paper, critical = (
        candidate_from_plan(get_policy(name).map(app, 8))
        for name in ("paper", "critical-path"))
    assert paper == critical  # both policies place 3L-MF alike
    for policies in (("paper", "critical-path"),
                     ("critical-path", "paper")):
        first, second = screen_policies(app, policies, duration_s=1.0)
        assert first.power_uw == second.power_uw
        assert (first.status, second.status) == (STATUS_OK,
                                                  STATUS_SCREENED)


def test_screen_policies_validates_policies():
    app = generate_app("pipeline", seed=5, index=0)
    with pytest.raises(ValueError):
        screen_policies(app, policies=("paper", "nope"))
    with pytest.raises(ValueError):
        screen_tokens(suite_tokens(5, 1), policies=("nope",))


def test_screen_policies_falls_back_for_single_core():
    app = generate_app("pipeline", seed=5, index=0)
    records = screen_policies(
        app, policies=("single-core", "paper"), duration_s=1.0)
    single = records[0]
    assert single.policy == "single-core"
    # Single-core points are not ranked against the multi-core ones:
    # they take the plain evaluate_app path.
    assert single.status != "screened"
    if single.status != STATUS_REJECTED:
        assert single.simulated_s == 1.0


def test_policy_rates_count_screened_records():
    records = screen_tokens(suite_tokens(5, 2),
                            policies=("paper", "balanced"),
                            duration_s=1.0)
    rates = policy_rates(records)
    screened = sum(entry[STATUS_SCREENED] for entry in rates.values())
    assert screened == sum(
        1 for r in records if r.status == STATUS_SCREENED)
    for entry in rates.values():
        assert entry["points"] == 2
        assert (entry["ok"] + entry["repaired"] + entry["rejected"]
                + entry[STATUS_SCREENED]) == 2
