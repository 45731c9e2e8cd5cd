"""Integration tests asserting the paper-level claims (DESIGN.md Sec. 4).

These are the acceptance tests of the reproduction: each checks a fact
the paper reports in Table I, Fig. 6 or Fig. 7.  Shorter simulated
durations are used where the metric is stationary (power and ratios
converge within a few seconds of simulated time).
"""

import pytest

from repro.eval import (
    PAPER_TABLE1,
    render_ablations,
    render_fig6,
    render_fig7,
    render_table1,
    run_all_ablations,
    run_fig6,
    run_fig7,
    run_table1,
)

DURATION = 20.0  # stationary metrics converge quickly


@pytest.fixture(scope="module")
def table1():
    return run_table1(duration_s=DURATION)


@pytest.fixture(scope="module")
def fig6():
    return run_fig6(duration_s=DURATION)


@pytest.fixture(scope="module")
def fig7():
    return run_fig7(duration_s=DURATION)


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

def test_benchmarks_in_paper_order(table1):
    assert [column.benchmark for column in table1] == \
        ["3L-MF", "3L-MMD", "RP-CLASS"]


def test_multicore_always_wins(table1):
    for column in table1:
        assert column.saving > 0.25


def test_savings_ordering_and_band(table1):
    savings = {column.benchmark: column.saving for column in table1}
    assert savings["3L-MF"] > savings["3L-MMD"] > savings["RP-CLASS"]
    for benchmark, value in savings.items():
        paper = PAPER_TABLE1[benchmark]["saving"]
        assert value == pytest.approx(paper, abs=0.05), benchmark


def test_operating_points_match_paper(table1):
    for column in table1:
        paper = PAPER_TABLE1[column.benchmark]
        values = column.as_dict()
        assert values["mc_clock"] == paper["mc_clock"]
        assert values["mc_voltage"] == paper["mc_voltage"]
        assert values["sc_voltage"] == paper["sc_voltage"]
        # 0.15 MHz slack: at short simulated durations the uniform
        # abnormal-beat placement quantises the RP-CLASS average load.
        assert values["sc_clock"] == pytest.approx(paper["sc_clock"],
                                                   abs=0.15)


def test_bank_and_core_counts_match_paper(table1):
    for column in table1:
        paper = PAPER_TABLE1[column.benchmark]
        values = column.as_dict()
        for key in ("active_cores", "sc_im_banks", "mc_im_banks",
                    "sc_dm_banks", "mc_dm_banks"):
            assert values[key] == paper[key], \
                f"{column.benchmark}: {key}"


def test_broadcast_fractions_match_paper(table1):
    for column in table1:
        paper = PAPER_TABLE1[column.benchmark]
        values = column.as_dict()
        assert values["im_broadcast"] == pytest.approx(
            paper["im_broadcast"], abs=0.02), column.benchmark
        assert values["dm_broadcast"] == pytest.approx(
            paper["dm_broadcast"], abs=0.012), column.benchmark


def test_im_broadcast_ordering(table1):
    fractions = [column.as_dict()["im_broadcast"] for column in table1]
    assert fractions[0] > fractions[1] > fractions[2]


def test_overheads_below_three_percent(table1):
    for column in table1:
        values = column.as_dict()
        assert 0 < values["code_overhead"] < 0.03
        assert 0 < values["runtime_overhead"] < 0.02


def test_powers_match_paper_within_five_percent(table1):
    for column in table1:
        paper = PAPER_TABLE1[column.benchmark]
        values = column.as_dict()
        assert values["sc_power"] == pytest.approx(paper["sc_power"],
                                                   rel=0.05)
        assert values["mc_power"] == pytest.approx(paper["mc_power"],
                                                   rel=0.05)


def test_render_table1_contains_all_rows(table1):
    text = render_table1(table1)
    for label in ("Active Cores", "IM Broadcast", "Min. Clock",
                  "Avg. Power", "Saving"):
        assert label in text


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------

def test_fig6_lower_comparable_higher(fig6):
    """The paper's Sec. V-B finding about MC without synchronization."""
    by_name = {group.benchmark: group for group in fig6}
    assert by_name["3L-MF"].no_sync_vs_single < -0.02
    assert abs(by_name["3L-MMD"].no_sync_vs_single) < 0.05
    assert by_name["RP-CLASS"].no_sync_vs_single > 0.02


def test_fig6_synchronized_multicore_wins_everywhere(fig6):
    for group in fig6:
        assert group.multi_sync.total_uw < group.single.total_uw
        assert group.multi_sync.total_uw < group.multi_no_sync.total_uw


def test_fig6_multicore_overhead_band(fig6):
    """MC-only components (crossbars, synchronizer and the larger clock
    tree) are a sizeable share (paper: up to 34 % in 3L-MF)."""
    fractions = [
        sum(group.multi_sync.categories[name]
            for name in ("interconnect", "synchronizer", "clock_tree"))
        / group.multi_sync.total_uw
        for group in fig6]
    assert max(fractions) > 0.15
    assert all(fraction < 0.45 for fraction in fractions)


def test_fig6_broadcast_shrinks_instruction_memory_power(fig6):
    for group in fig6:
        assert group.multi_sync.categories["instr_mem"] < \
            group.multi_no_sync.categories["instr_mem"]


def test_render_fig6(fig6):
    text = render_fig6(fig6)
    assert "3L-MF" in text and "instr_mem" in text


# ---------------------------------------------------------------------------
# Figure 7
# ---------------------------------------------------------------------------

def test_fig7_multicore_wins_at_every_ratio(fig7):
    for point in fig7:
        assert point.reduction > 0.15


def test_fig7_single_core_power_rises_with_ratio(fig7):
    powers = [point.sc_power_uw for point in fig7]
    assert all(a < b for a, b in zip(powers, powers[1:]))


def test_fig7_multicore_power_rises_slower(fig7):
    sc_growth = fig7[-1].sc_power_uw / fig7[0].sc_power_uw
    mc_growth = fig7[-1].mc_power_uw / fig7[0].mc_power_uw
    assert mc_growth < sc_growth


def test_fig7_best_case_reduction_near_paper(fig7):
    best = max(point.reduction for point in fig7)
    assert 0.35 <= best <= 0.50  # paper: "up to 38 %"


def test_fig7_reduction_grows_once_chain_activates(fig7):
    """High-pathology inputs benefit more than the healthy input."""
    assert fig7[-1].reduction > fig7[0].reduction + 0.05


def test_fig7_voltage_kink_appears_in_single_core(fig7):
    voltages = [point.single.operating_point.voltage for point in fig7]
    assert voltages[0] == 0.6
    assert voltages[-1] > 0.6


def test_render_fig7(fig7):
    text = render_fig7(fig7)
    assert "reduction" in text


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def test_ablations_all_mechanisms_matter():
    results = run_all_ablations(duration_s=10.0)
    assert len(results) == 6
    for result in results:
        assert result.penalty_fraction > 0.05, result.name
    text = render_ablations(results)
    assert "ABL-1" in text
