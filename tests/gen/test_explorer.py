"""Tests for the mapping-policy explorer."""

import numpy as np
import pytest

from repro.apps.phases import AppSpec, PhaseSpec, SectionSpec
from repro.gen import (
    evaluate_app,
    evaluate_token,
    explore,
    generate_app,
    repair_app,
    suite_tokens,
)
from repro.gen.explorer import (
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_REPAIRED,
    ExplorationRecord,
    keep_top_k,
    policy_rates,
)


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


def test_keep_top_k_ranks_best_first():
    costs = np.array([5.0, 1.0, 3.0, 2.0])
    assert keep_top_k(costs, 2) == [1, 3]
    assert keep_top_k(costs, 10) == [1, 3, 2, 0]


def test_keep_top_k_breaks_ties_by_position():
    costs = np.array([2.0, 1.0, 1.0, 1.0])
    assert keep_top_k(costs, 2) == [1, 2]


def test_screen_policies_simulates_only_the_kept():
    from repro.gen.explorer import STATUS_SCREENED, screen_tokens

    tokens = suite_tokens(5, 2)
    records = screen_tokens(tokens, policies=("paper", "balanced"),
                            duration_s=1.0, top_k=1)
    assert [(r.token, r.policy) for r in records] == [
        (tokens[0], "paper"), (tokens[0], "balanced"),
        (tokens[1], "paper"), (tokens[1], "balanced"),
    ]
    for token in tokens:
        per_app = [r for r in records if r.token == token]
        placed = [r for r in per_app if r.status != STATUS_REJECTED]
        screened = [r for r in placed if r.status == STATUS_SCREENED]
        simulated = [r for r in placed if r.status != STATUS_SCREENED]
        # top_k=1: at most one feasible candidate pays a simulation.
        assert len(simulated) <= 1
        for record in screened:
            assert record.simulated_s == 0.0
            assert record.power_uw > 0.0
        for record in simulated:
            assert record.simulated_s == 1.0


def test_screened_records_match_exact_within_float_noise():
    from repro.gen.explorer import STATUS_SCREENED, screen_policies

    app = generate_app("pipeline", seed=5, index=0)
    records = screen_policies(app, policies=("paper", "balanced"),
                              duration_s=1.0, top_k=1)
    for record in records:
        if record.status != STATUS_SCREENED:
            continue
        exact = evaluate_app(app, record.policy, duration_s=1.0)
        assert record.power_uw == pytest.approx(exact.power_uw,
                                                rel=1e-9)
        assert record.clock_mhz == pytest.approx(exact.clock_mhz,
                                                 rel=1e-9)
        assert record.voltage == exact.voltage
        assert record.active_cores == exact.active_cores
        assert record.im_banks == exact.im_banks


def test_screen_policies_validates_top_k():
    from repro.gen.explorer import screen_policies, screen_tokens

    app = generate_app("pipeline", seed=5, index=0)
    with pytest.raises(ValueError, match="top-k must be >= 1"):
        screen_policies(app, top_k=0)
    with pytest.raises(ValueError):
        screen_tokens(suite_tokens(5, 1), policies=("nope",))


def test_screen_policies_falls_back_for_single_core():
    from repro.gen.explorer import screen_policies

    app = generate_app("pipeline", seed=5, index=0)
    records = screen_policies(
        app, policies=("single-core", "paper"), duration_s=1.0,
        top_k=1)
    single = records[0]
    assert single.policy == "single-core"
    # Single-core points cannot be screened analytically: they pay
    # the exact simulation regardless of the keep budget.
    assert single.status != "screened"
    if single.status != STATUS_REJECTED:
        assert single.simulated_s == 1.0


def test_policy_rates_count_screened_records():
    from repro.gen.explorer import STATUS_SCREENED, screen_tokens

    records = screen_tokens(suite_tokens(5, 2),
                            policies=("paper", "balanced"),
                            duration_s=1.0, top_k=1)
    rates = policy_rates(records)
    screened = sum(entry[STATUS_SCREENED] for entry in rates.values())
    assert screened == sum(
        1 for r in records if r.status == STATUS_SCREENED)
    for entry in rates.values():
        assert entry["points"] == 2
        assert (entry["ok"] + entry["repaired"] + entry["rejected"]
                + entry[STATUS_SCREENED]) == 2
