"""Tests for scenario presets and seeded node construction."""

import dataclasses

import pytest

from repro.net.node import APPS, build_node
from repro.net.scenarios import SCENARIOS, Scenario, get_scenario


def test_registry_holds_the_presets():
    assert set(SCENARIOS) == {"dense-ward", "drifting-wearables",
                              "intermittent-harvesting",
                              "generated-swarm", "mixed-clinic"}
    for scenario in SCENARIOS.values():
        assert isinstance(scenario, Scenario)
        assert scenario.default_nodes > 0
        assert scenario.beacon_period_s > 0
        for app_name, weight in getattr(scenario.apps, "mix", ()):
            assert app_name in APPS
            assert weight > 0
    # the benchmark presets expose their mix through their source
    assert SCENARIOS["dense-ward"].apps.mix == \
        (("3L-MF", 2.0), ("3L-MMD", 1.0))
    # heterogeneous sources have no fixed benchmark mix
    assert not hasattr(SCENARIOS["generated-swarm"].apps, "mix")


def test_get_scenario_protocol_override_does_not_mutate_preset():
    overridden = get_scenario("dense-ward", protocol="none")
    assert overridden.protocol == "none"
    assert SCENARIOS["dense-ward"].protocol == "rbs"
    assert get_scenario("dense-ward").protocol == "rbs"


def test_get_scenario_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown scenario"):
        get_scenario("mars-rover")


def test_build_node_is_a_pure_function_of_its_seed():
    scenario = get_scenario("drifting-wearables")
    a = build_node(scenario, 5, fleet_seed=9, duration_s=10.0)
    b = build_node(scenario, 5, fleet_seed=9, duration_s=10.0)
    assert (a.app_name, a.bpm, a.clock.spec) == \
        (b.app_name, b.bpm, b.clock.spec)
    other = build_node(scenario, 6, fleet_seed=9, duration_s=10.0)
    assert (a.bpm, a.clock.spec) != (other.bpm, other.clock.spec)


def test_node_parameters_respect_scenario_ranges():
    scenario = get_scenario("drifting-wearables")
    for node_id in range(20):
        node = build_node(scenario, node_id, fleet_seed=4,
                          duration_s=5.0)
        low, high = scenario.drift_ppm_range
        assert low <= abs(node.clock.spec.drift_ppm) <= high
        assert scenario.bpm_range[0] <= node.bpm <= scenario.bpm_range[1]
        assert abs(node.clock.spec.initial_offset_s) <= \
            scenario.initial_offset_s


def test_reference_node_is_continuously_powered():
    scenario = get_scenario("intermittent-harvesting")
    reference = build_node(scenario, 0, fleet_seed=2, duration_s=50.0)
    assert reference.clock.spec.power_loss_rate_hz == 0.0
    assert reference.clock.reset_times == []
    # Followers really do brown out in this scenario.
    resets = sum(
        len(build_node(scenario, node_id, fleet_seed=2,
                       duration_s=50.0).clock.reset_times)
        for node_id in range(1, 8))
    assert resets > 0


def test_presets_can_be_specialised_with_replace():
    tiny = dataclasses.replace(get_scenario("dense-ward"),
                               default_nodes=2)
    assert tiny.default_nodes == 2
    assert SCENARIOS["dense-ward"].default_nodes == 64
