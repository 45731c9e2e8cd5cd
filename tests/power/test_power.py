"""Tests for the process, VFS and energy-accounting models."""

import pytest
from hypothesis import given, strategies as st

from repro.power import (
    ActivityVector,
    OperatingPoint,
    PowerReport,
    compute_power,
    plan_operating_point,
)
from repro.power.process import (
    FMAX_TABLE,
    dynamic_scale,
    leakage_scale,
    min_voltage,
)


# ---------------------------------------------------------------------------
# Process model
# ---------------------------------------------------------------------------

def test_paper_operating_points_are_on_the_curve():
    # Multi-core rows of Table I: 1.0 MHz at 0.5 V.
    assert min_voltage(1.0) == 0.5
    # Single-core rows: 2.3 / 3.3 / 3.4 MHz all need 0.6 V.
    for frequency in (2.3, 3.3, 3.4):
        assert min_voltage(frequency) == 0.6


def test_fmax_monotonic_and_grid_lookup():
    fmax = dict(FMAX_TABLE)
    assert fmax[0.5] == 1.0
    assert fmax[0.6] > fmax[0.5]
    assert 0.52 not in fmax


def _strictly_ascending(table):
    """The grid ascends strictly in voltage and in fmax, which is what
    lets ``min_voltage`` return the first grid point that reaches."""
    voltages = [voltage for voltage, _ in table]
    frequencies = [frequency for _, frequency in table]
    return (all(a < b for a, b in zip(voltages, voltages[1:]))
            and all(a < b for a, b in zip(frequencies, frequencies[1:])))


def test_bad_fmax_table_rejected():
    assert not _strictly_ascending(((0.5, 1.0), (0.5, 2.0)))
    assert not _strictly_ascending(((0.5, 2.0), (0.6, 1.0)))
    assert _strictly_ascending(FMAX_TABLE)


def test_min_voltage_out_of_reach():
    with pytest.raises(ValueError):
        min_voltage(1e6)


def test_dynamic_and_leakage_scales_are_unity_at_reference():
    assert dynamic_scale(0.6) == pytest.approx(1.0)
    assert leakage_scale(0.6) == pytest.approx(1.0)


def test_scaling_decreases_with_voltage():
    assert dynamic_scale(0.5) < 1.0
    assert leakage_scale(0.5) < 1.0
    # Leakage shrinks faster than dynamic in this model.
    assert leakage_scale(0.5) < dynamic_scale(0.5)


# ---------------------------------------------------------------------------
# VFS planner
# ---------------------------------------------------------------------------

def test_planner_applies_system_clock_floor():
    point = plan_operating_point(0.77)
    assert point.frequency_mhz == 1.0
    assert point.voltage == 0.5


def test_planner_keeps_exact_requirement_above_floor():
    point = plan_operating_point(2.3, single_core=True)
    assert point.frequency_mhz == 2.3
    assert point.voltage == 0.6


def test_single_core_boost_can_lower_voltage():
    # 2.25 MHz: plain fmax(0.55) = 2.2 is short, but the decoder boost
    # (x1.04 -> 2.288) reaches it.
    assert plan_operating_point(2.25, single_core=False).voltage == 0.6
    assert plan_operating_point(2.25, single_core=True).voltage == 0.55


def test_planner_rejects_negative_requirement():
    with pytest.raises(ValueError):
        plan_operating_point(-1.0)


# ---------------------------------------------------------------------------
# Energy accounting
# ---------------------------------------------------------------------------

def _sc_activity(mhz: float, seconds: float, im_banks: int, dm_banks: int,
                 dm_rate: float = 0.25) -> ActivityVector:
    """Activity of a fully loaded single core at ``mhz``."""
    cycles = mhz * 1e6 * seconds
    return ActivityVector(
        cycles=cycles,
        core_active_cycles=cycles,
        im_accesses=cycles,
        dm_accesses=cycles * dm_rate,
        interconnect_grants=cycles * (1 + dm_rate),
        sync_ops=0,
        cores_on=1,
        im_banks_on=im_banks,
        dm_banks_on=dm_banks,
        platform_cores=1,
    )


def test_single_core_calibration_matches_table1_3lmf():
    """The SC fit must land near the paper's 53.6 uW for 3L-MF."""
    activity = _sc_activity(2.3, 60.0, im_banks=1, dm_banks=3)
    report = compute_power(activity, OperatingPoint(2.3, 0.6),
                           multicore=False)
    assert report.total_uw == pytest.approx(53.6, rel=0.03)


def test_single_core_calibration_matches_table1_3lmmd():
    activity = _sc_activity(3.4, 60.0, im_banks=3, dm_banks=3)
    report = compute_power(activity, OperatingPoint(3.4, 0.6),
                           multicore=False)
    assert report.total_uw == pytest.approx(79.7, rel=0.03)


def test_single_core_calibration_matches_table1_rpclass():
    activity = _sc_activity(3.3, 60.0, im_banks=4, dm_banks=11)
    report = compute_power(activity, OperatingPoint(3.3, 0.6),
                           multicore=False)
    assert report.total_uw == pytest.approx(80.4, rel=0.03)


def test_instruction_memory_dominates_dynamic_power():
    """The calibration puts IM fetch first - the broadcast lever."""
    activity = _sc_activity(2.3, 60.0, im_banks=1, dm_banks=3)
    report = compute_power(activity, OperatingPoint(2.3, 0.6),
                           multicore=False)
    assert report.categories["instr_mem"] == max(
        report.categories[name] for name in report.categories
        if name != "instr_mem") or \
        report.categories["instr_mem"] > report.categories["cores_logic"]


def test_lower_voltage_reduces_power_for_same_work():
    activity = _sc_activity(1.0, 60.0, im_banks=1, dm_banks=3)
    high = compute_power(activity, OperatingPoint(1.0, 0.6),
                         multicore=False)
    low = compute_power(activity, OperatingPoint(1.0, 0.5),
                        multicore=False)
    assert low.total_uw < high.total_uw


def test_multicore_charges_interconnect_and_synchronizer():
    activity = ActivityVector(
        cycles=1e6, core_active_cycles=2e6, im_accesses=1.5e6,
        dm_accesses=0.5e6, interconnect_grants=2.5e6, sync_ops=1000,
        cores_on=3, im_banks_on=2, dm_banks_on=16, platform_cores=8)
    multi = compute_power(activity, OperatingPoint(1.0, 0.5),
                          multicore=True)
    single = compute_power(activity, OperatingPoint(1.0, 0.5),
                           multicore=False)
    assert multi.categories["interconnect"] > \
        single.categories["interconnect"]
    assert multi.categories["synchronizer"] > \
        single.categories["synchronizer"]
    assert multi.categories["leakage"] > single.categories["leakage"]


def test_broadcast_saves_instruction_memory_power():
    base = _sc_activity(1.0, 60.0, im_banks=1, dm_banks=16)
    merged = ActivityVector(
        cycles=base.cycles, core_active_cycles=base.core_active_cycles,
        im_accesses=base.im_accesses * 0.6,  # 40 % broadcast
        dm_accesses=base.dm_accesses,
        interconnect_grants=base.interconnect_grants,
        sync_ops=0, cores_on=1, im_banks_on=1, dm_banks_on=16,
        platform_cores=8)
    point = OperatingPoint(1.0, 0.5)
    without = compute_power(base, point, multicore=True)
    with_bcast = compute_power(merged, point, multicore=True)
    saved = (without.categories["instr_mem"]
             - with_bcast.categories["instr_mem"])
    assert saved == pytest.approx(
        0.4 * without.categories["instr_mem"], rel=1e-6)


def test_power_report_saving_and_str():
    activity = _sc_activity(2.3, 60.0, im_banks=1, dm_banks=3)
    baseline = compute_power(activity, OperatingPoint(2.3, 0.6),
                             multicore=False)
    improved = PowerReport(
        operating_point=OperatingPoint(1.0, 0.5), duration_s=60.0,
        categories={"cores_logic": baseline.total_uw / 2})
    assert improved.saving_vs(baseline) == pytest.approx(0.5)


def test_total_sums_categories_left_to_right():
    """CPython 3.12's compensated ``sum()`` would give 1.0 here."""
    report = PowerReport(OperatingPoint(1.0, 0.5), 1.0,
                         {f"c{i}": 0.1 for i in range(10)})
    assert report.total_uw == 0.9999999999999999


def test_zero_cycle_activity_rejected():
    activity = _sc_activity(1.0, 60.0, im_banks=1, dm_banks=1)
    bad = ActivityVector(
        cycles=0, core_active_cycles=0, im_accesses=0, dm_accesses=0,
        interconnect_grants=0, sync_ops=0, cores_on=1, im_banks_on=1,
        dm_banks_on=1, platform_cores=1)
    with pytest.raises(ValueError):
        compute_power(bad, OperatingPoint(1.0, 0.5), multicore=False)
    # sanity: the good one works
    compute_power(activity, OperatingPoint(1.0, 0.5), multicore=False)


@given(st.floats(min_value=0.4, max_value=1.2),
       st.floats(min_value=0.4, max_value=1.2))
def test_power_is_monotonic_in_voltage(v_low, v_high):
    """Same activity at higher voltage never consumes less power."""
    if v_low > v_high:
        v_low, v_high = v_high, v_low
    activity = _sc_activity(1.0, 1.0, im_banks=1, dm_banks=1)
    low = compute_power(activity, OperatingPoint(1.0, v_low),
                        multicore=True)
    high = compute_power(activity, OperatingPoint(1.0, v_high),
                         multicore=True)
    assert low.total_uw <= high.total_uw + 1e-9


def test_activity_vector_from_system_adapter():
    from repro.hw.system import System
    from repro.isa.assembler import assemble

    system = System.multicore(num_cores=8)
    system.load(assemble("""
        .entry 0, main
        .entry 1, main
        main:
            sinc 0
            sdec 0
            sleep
            halt
    """))
    system.run(1000)
    vector = ActivityVector.from_system(system.activity(), platform_cores=8)
    assert vector.cores_on == 2
    assert vector.sync_ops >= 4
    assert vector.dm_banks_on == 16
    assert vector.platform_cores == 8
    report = compute_power(vector, OperatingPoint(1.0, 0.5), multicore=True)
    assert report.total_uw > 0
