"""Tests for the system-level behavioural simulator."""

import pytest

from repro.apps import rp_class, three_lead_mf, three_lead_mmd
from repro.sysc import Mode, simulate, uniform_schedule

FS = 250.0


def _run(app, mode, ratio=0.0, duration=60.0):
    schedule = uniform_schedule(duration, FS, abnormal_ratio=ratio)
    return simulate(app, mode, schedule, duration_s=duration)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def test_uniform_schedule_ratio_and_spread():
    schedule = uniform_schedule(60.0, FS, abnormal_ratio=0.25)
    abnormal = [e for e in schedule if e.abnormal]
    assert len(abnormal) == pytest.approx(len(schedule) * 0.25, abs=1)
    gaps = [b.sample - a.sample for a, b in zip(abnormal, abnormal[1:])]
    assert max(gaps) - min(gaps) <= max(1, int(0.35 * FS * 60 / 72))


def test_uniform_schedule_extremes():
    assert all(not e.abnormal
               for e in uniform_schedule(30.0, FS, abnormal_ratio=0.0))
    assert all(e.abnormal
               for e in uniform_schedule(30.0, FS, abnormal_ratio=1.0))
    assert uniform_schedule(0.0, FS) == []


# ---------------------------------------------------------------------------
# Sizing (VFS) behaviour
# ---------------------------------------------------------------------------

def test_single_core_clocks_match_table1():
    assert _run(three_lead_mf(), Mode.SINGLE_CORE).required_mhz == \
        pytest.approx(2.3, abs=0.02)
    assert _run(three_lead_mmd(), Mode.SINGLE_CORE).required_mhz == \
        pytest.approx(3.4, abs=0.02)
    result = _run(rp_class(0.2), Mode.SINGLE_CORE, ratio=0.2)
    assert result.required_mhz == pytest.approx(3.3, abs=0.1)


def test_multicore_runs_at_platform_floor():
    for app, ratio in ((three_lead_mf(), 0.0), (three_lead_mmd(), 0.0),
                       (rp_class(0.2), 0.2)):
        result = _run(app, Mode.MULTI_CORE, ratio=ratio)
        assert result.operating_point.frequency_mhz == 1.0
        assert result.operating_point.voltage == 0.5


def test_single_core_voltage_is_06():
    for app, ratio in ((three_lead_mf(), 0.0), (three_lead_mmd(), 0.0),
                       (rp_class(0.2), 0.2)):
        result = _run(app, Mode.SINGLE_CORE, ratio=ratio)
        assert result.operating_point.voltage == 0.6


# ---------------------------------------------------------------------------
# Activity accounting
# ---------------------------------------------------------------------------

def test_multicore_cores_are_gated_when_idle():
    result = _run(three_lead_mf(), Mode.MULTI_CORE)
    activity = result.activity
    # 3 cores at ~78 % duty: active cycles well below 3x wall cycles.
    assert activity.core_active_cycles < 3 * activity.cycles * 0.9
    assert activity.core_active_cycles > 3 * activity.cycles * 0.6


def test_no_sync_mode_spins_instead_of_gating():
    gated = _run(three_lead_mf(), Mode.MULTI_CORE)
    spinning = _run(three_lead_mf(), Mode.MULTI_CORE_NO_SYNC)
    assert spinning.activity.core_active_cycles == \
        pytest.approx(3 * spinning.activity.cycles, rel=0.01)
    assert spinning.activity.core_active_cycles > \
        gated.activity.core_active_cycles
    assert spinning.activity.sync_ops == 0
    assert spinning.im_broadcast_fraction == 0.0


def test_broadcast_only_in_synchronized_multicore():
    assert _run(three_lead_mf(), Mode.SINGLE_CORE) \
        .im_broadcast_fraction == 0.0
    assert _run(three_lead_mf(), Mode.MULTI_CORE) \
        .im_broadcast_fraction > 0.3


def test_triggered_phases_consume_nothing_without_abnormal_beats():
    idle = _run(rp_class(0.0), Mode.MULTI_CORE, ratio=0.0)
    busy = _run(rp_class(0.5), Mode.MULTI_CORE, ratio=0.5)
    assert busy.activity.core_active_cycles > \
        idle.activity.core_active_cycles * 1.1


def test_runtime_overhead_in_paper_band():
    mf = _run(three_lead_mf(), Mode.MULTI_CORE)
    mmd = _run(three_lead_mmd(), Mode.MULTI_CORE)
    rp = _run(rp_class(0.2), Mode.MULTI_CORE, ratio=0.2)
    assert 0.005 < rp.runtime_overhead < mmd.runtime_overhead \
        < mf.runtime_overhead < 0.02


def test_streaming_latency_is_bounded():
    """Real-time check: streaming work never piles up."""
    for app, ratio in ((three_lead_mf(), 0.0), (three_lead_mmd(), 0.0)):
        result = _run(app, Mode.MULTI_CORE, ratio=ratio)
        assert result.max_latency_s < 0.01


def test_triggered_burst_latency_within_two_beats():
    """The on-demand chain drains within its relaxed deadline."""
    result = _run(rp_class(0.2), Mode.MULTI_CORE, ratio=0.2)
    assert result.max_latency_s < 2 * 60.0 / 72.0


def test_power_decomposition_is_consistent():
    result = _run(three_lead_mmd(), Mode.MULTI_CORE)
    assert result.power.total_uw == pytest.approx(
        sum(result.power.categories.values()))
    assert all(value >= 0 for value in result.power.categories.values())


def test_shorter_simulation_gives_same_average_power():
    """Average power is duration-invariant for stationary workloads."""
    long = _run(three_lead_mf(), Mode.MULTI_CORE, duration=60.0)
    short = _run(three_lead_mf(), Mode.MULTI_CORE, duration=10.0)
    assert short.power.total_uw == pytest.approx(long.power.total_uw,
                                                 rel=0.02)


def test_single_core_instruction_memory_dominates():
    """Fetch energy is the biggest SC component - the broadcast lever."""
    result = _run(three_lead_mf(), Mode.SINGLE_CORE)
    categories = result.power.categories
    assert categories["instr_mem"] == max(categories.values())
