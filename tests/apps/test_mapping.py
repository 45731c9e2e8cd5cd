"""Tests for the partition / insert / map methodology (Sec. III-B)."""

import pytest

from repro.apps import (
    MappingError,
    map_multicore,
    map_singlecore,
    rp_class,
    three_lead_mf,
    three_lead_mmd,
)
from repro.apps.phases import AppSpec, PhaseSpec, SectionSpec


def test_3lmf_multicore_mapping_matches_table1():
    plan = map_multicore(three_lead_mf())
    assert plan.active_cores == 3
    assert len(plan.im_banks_used) == 1
    assert plan.dm_banks_active == 16


def test_3lmmd_multicore_mapping_matches_table1():
    plan = map_multicore(three_lead_mmd())
    assert plan.active_cores == 5
    assert len(plan.im_banks_used) == 4
    assert plan.dm_banks_active == 16


def test_rpclass_multicore_mapping_matches_table1():
    plan = map_multicore(rp_class())
    assert plan.active_cores == 6
    assert len(plan.im_banks_used) == 6
    assert plan.dm_banks_active == 16


def test_singlecore_im_banks_match_table1():
    assert len(map_singlecore(three_lead_mf()).im_banks_used) == 1
    assert len(map_singlecore(three_lead_mmd()).im_banks_used) == 3
    assert len(map_singlecore(rp_class()).im_banks_used) == 4


def test_singlecore_dm_banks_match_table1():
    assert map_singlecore(three_lead_mf()).dm_banks_active == 3
    assert map_singlecore(three_lead_mmd()).dm_banks_active == 3
    assert map_singlecore(rp_class()).dm_banks_active == 11


def test_multicore_phases_get_distinct_banks():
    """Different phases never share an IM bank (conflict avoidance)."""
    plan = map_multicore(three_lead_mmd())
    app = plan.app
    phase_banks = {}
    for phase in app.phases:
        banks = {plan.section_banks[s.name] for s in phase.sections}
        phase_banks[phase.name] = banks
    assert phase_banks["filter"].isdisjoint(phase_banks["combine"])
    assert phase_banks["combine"].isdisjoint(phase_banks["delineate"])


def test_rp_class_filters_share_code_bank():
    """RP-CLASS's on-demand filters fetch the same mf code/bank."""
    plan = map_multicore(rp_class())
    assert plan.app.phase("filter").sections[0].name == "mf"
    assert plan.app.phase("filter_chain").sections[0].name == "mf"
    assert plan.section_banks["mf"] == 0


def test_replicas_on_distinct_cores():
    plan = map_multicore(three_lead_mf())
    cores = [assignment.core for assignment in plan.assignments
             if assignment.phase == "filter"]
    assert len(cores) == 3
    assert len(set(cores)) == 3


def test_code_overhead_in_paper_band():
    """Code overhead below 3 % in the worst case (Sec. V-A)."""
    overheads = {
        "3L-MF": map_multicore(three_lead_mf()).code_overhead,
        "3L-MMD": map_multicore(three_lead_mmd()).code_overhead,
        "RP-CLASS": map_multicore(rp_class()).code_overhead,
    }
    assert all(0 < value < 0.03 for value in overheads.values())
    # Ordering of Table I: 3L-MF > 3L-MMD > RP-CLASS.
    assert overheads["3L-MF"] > overheads["3L-MMD"] > overheads["RP-CLASS"]


def test_singlecore_has_no_code_overhead():
    assert map_singlecore(three_lead_mf()).code_overhead == 0.0


def test_sync_points_allocated_per_group_and_channel():
    assert map_multicore(three_lead_mf()).sync_points_used == 1
    assert map_multicore(three_lead_mmd()).sync_points_used == 3
    # RP-CLASS: classify group + chain filter group + 2 channels.
    assert map_multicore(rp_class()).sync_points_used == 4


def test_too_many_replicas_rejected():
    app = AppSpec(name="big", fs=250.0, phases=[
        PhaseSpec(name="p", cycles_per_sample=10, dm_access_rate=0.1,
                  sections=(SectionSpec("p", 100),), replicas=9)])
    with pytest.raises(MappingError, match="more than"):
        map_multicore(app, num_cores=8)


def test_oversized_section_rejected():
    app = AppSpec(name="huge", fs=250.0, phases=[
        PhaseSpec(name="p", cycles_per_sample=10, dm_access_rate=0.1,
                  sections=(SectionSpec("p", 5000),))])
    with pytest.raises(MappingError, match="overflows"):
        map_multicore(app)


def test_conflicting_shared_section_sizes_rejected():
    app = AppSpec(name="clash", fs=250.0, phases=[
        PhaseSpec(name="a", cycles_per_sample=10, dm_access_rate=0.1,
                  sections=(SectionSpec("s", 100),)),
        PhaseSpec(name="b", cycles_per_sample=10, dm_access_rate=0.1,
                  sections=(SectionSpec("s", 200),)),
    ])
    with pytest.raises(MappingError, match="two sizes"):
        map_singlecore(app)


def test_app_validation_catches_duplicates():
    app = AppSpec(name="dup", fs=250.0, phases=[
        PhaseSpec(name="p", cycles_per_sample=1, dm_access_rate=0.1,
                  sections=(SectionSpec("x", 10),)),
        PhaseSpec(name="p", cycles_per_sample=1, dm_access_rate=0.1,
                  sections=(SectionSpec("y", 10),)),
    ])
    with pytest.raises(ValueError, match="duplicate"):
        app.validate()
