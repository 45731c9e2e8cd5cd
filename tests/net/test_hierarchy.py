"""Hierarchy-layer tests: tokens, validation, draws, compounding."""

import math

import numpy as np
import pytest

from repro.net.clock import ClockSpec, LocalClock
from repro.net.hierarchy import (
    HIERARCHIES,
    HierarchySpec,
    MEGA_CAMPUS,
    ROOT_PATH,
    Tier,
    WARD_CAMPUS,
    _stream,
    build_member,
    draw_members,
    hierarchy_token,
    hop_error_samples,
    parse_hierarchy,
)
from repro.net.radio import beacon_schedule, receive_beacons
from repro.net.scenarios import get_scenario

from .reference_stream import compose_errors


# ---------------------------------------------------------------------------
# Tokens and presets
# ---------------------------------------------------------------------------

def test_presets_serialise_to_their_registry_names():
    for name, spec in HIERARCHIES.items():
        assert hierarchy_token(spec) == name
        assert parse_hierarchy(name) is spec


def test_token_round_trip_preserves_tiers_and_base():
    token = "tiers:ftsp@10x4~0.5/rbs@2.5x6:dense-ward"
    spec = parse_hierarchy(token)
    assert spec.name == token
    assert hierarchy_token(spec) == token
    assert spec.base is get_scenario("dense-ward")
    assert [t.name for t in spec.tiers] == ["backbone", "cluster"]
    backbone, cluster = spec.tiers
    assert backbone.protocol == "ftsp"
    assert backbone.beacon_period_s == 10.0
    assert backbone.fan_out == 4
    assert backbone.drift_scale == 0.5
    assert cluster.protocol == "rbs"
    assert cluster.beacon_period_s == 2.5
    assert cluster.drift_scale == 1.0  # omitted scale defaults to 1


def test_unit_drift_scale_is_omitted_from_tokens():
    spec = parse_hierarchy("tiers:rbs@2x6:dense-ward")
    assert "~" not in hierarchy_token(spec)
    assert [t.name for t in spec.tiers] == ["cluster"]


def test_three_tier_tokens_name_the_middle_levels():
    spec = parse_hierarchy("tiers:ftsp@10x2/ftsp@5x2/rbs@1x3:dense-ward")
    assert [t.name for t in spec.tiers] == ["backbone", "relay1",
                                            "cluster"]


def test_generated_base_tokens_survive_the_round_trip():
    token = "tiers:rbs@2x3:gen:dense-ward:7:4:balanced"
    spec = parse_hierarchy(token)
    assert spec.base.apps.kind == "generated-suite"
    assert hierarchy_token(spec) == token


@pytest.mark.parametrize("bad", [
    "no-such-preset",
    "tiers:",
    "tiers:rbs@2x6",            # no base
    "tiers:rbs2x6:dense-ward",  # missing @
    "tiers:rbs@2q6:dense-ward",  # missing x
    "tiers:rbs@abcx6:dense-ward",
    "tiers:rbs@2x6~zz:dense-ward",
    "tiers:rbs@2x6:no-such-scenario",
])
def test_malformed_tokens_raise_value_error(bad):
    with pytest.raises(ValueError):
        parse_hierarchy(bad)


def test_tier_and_spec_validation():
    with pytest.raises(ValueError):
        Tier(name="", protocol="rbs", beacon_period_s=1.0, fan_out=2)
    with pytest.raises(ValueError):
        Tier(name="x", protocol="nope", beacon_period_s=1.0, fan_out=2)
    with pytest.raises(ValueError):
        Tier(name="x", protocol="rbs", beacon_period_s=0.0, fan_out=2)
    with pytest.raises(ValueError):
        Tier(name="x", protocol="rbs", beacon_period_s=1.0, fan_out=0)
    with pytest.raises(ValueError):
        Tier(name="x", protocol="rbs", beacon_period_s=1.0, fan_out=2,
             drift_scale=0.0)
    with pytest.raises(ValueError):
        HierarchySpec(name="x", base="dense-ward")  # not a Scenario
    with pytest.raises(ValueError):
        HierarchySpec(name="x", base=get_scenario("dense-ward"),
                      tiers=("rbs",))


# ---------------------------------------------------------------------------
# Shape arithmetic and degenerate specs
# ---------------------------------------------------------------------------

def test_tier_counts_are_cumulative_fan_out_products():
    assert WARD_CAMPUS.tier_counts == (8, 128)
    assert WARD_CAMPUS.n_nodes == 137
    assert WARD_CAMPUS.subtrees == 8
    assert WARD_CAMPUS.subtree_nodes == 17  # 1 gateway + 16 leaves
    assert MEGA_CAMPUS.n_nodes == 1 + 320 + 320 * 320


def test_empty_hierarchy_is_the_root_alone():
    spec = HierarchySpec(name="solo", base=get_scenario("dense-ward"))
    assert spec.tier_counts == ()
    assert spec.n_nodes == 1
    assert spec.subtrees == 0
    assert spec.subtree_nodes == 0


# ---------------------------------------------------------------------------
# Member draws: the root's per-member streams and the tiers' array draws
# ---------------------------------------------------------------------------

#: The two ways a member's clock is drawn: on its own
#: (``build_member``, the root) or as one row of its tier's arrays
#: (``draw_members``, every tier member of a streaming run).
DRAW_MODES = ("member", "array")


def _draw(mode, spec, tier_index, path, seed, duration_s):
    """``(drift_ppm, offset_s, can_reset)`` of the member at ``path``."""
    if mode == "member":
        _, clock = build_member(spec, tier_index, path, seed, duration_s)
        return (clock.spec.drift_ppm, clock.spec.initial_offset_s,
                clock.spec.power_loss_rate_hz > 0)
    index, *below = (int(part) for part in path.split("."))
    rows = math.prod(t.fan_out for t in spec.tiers[1:tier_index + 1])
    row = 0
    for tier, digit in zip(spec.tiers[1:tier_index + 1], below):
        row = row * tier.fan_out + digit
    drift, offset, resets, *_ = draw_members(spec, seed, [index],
                                              tier_index, rows, 2,
                                              duration_s)
    return float(drift[row]), float(offset[row]), resets is not None


@pytest.mark.parametrize("mode", DRAW_MODES)
def test_member_draws_depend_on_path_not_call_order(mode):
    spec = WARD_CAMPUS
    first = _draw(mode, spec, 0, "3", seed=9, duration_s=4.0)
    _ = _draw(mode, spec, 1, "3.7", seed=9, duration_s=4.0)
    again = _draw(mode, spec, 0, "3", seed=9, duration_s=4.0)
    assert first == again
    assert _draw(mode, spec, 0, "4", seed=9, duration_s=4.0) != first
    if mode == "member":
        a1, _ = build_member(spec, 0, "3", seed=9, duration_s=4.0)
        a2, _ = build_member(spec, 0, "3", seed=9, duration_s=4.0)
        assert (a1.name, a1.token, a1.policy) == (a2.name, a2.token,
                                                  a2.policy)


@pytest.mark.parametrize("mode", DRAW_MODES)
def test_drift_scale_scales_the_drawn_magnitude(mode):
    base = get_scenario("dense-ward")
    tier = dict(protocol="rbs", beacon_period_s=2.0, fan_out=4)
    full = HierarchySpec(name="f", base=base,
                         tiers=(Tier(name="t", **tier),))
    half = HierarchySpec(name="h", base=base,
                         tiers=(Tier(name="t", drift_scale=0.5, **tier),))
    drift_full, _, _ = _draw(mode, full, 0, "0", seed=5, duration_s=4.0)
    drift_half, _, _ = _draw(mode, half, 0, "0", seed=5, duration_s=4.0)
    assert drift_half == pytest.approx(drift_full * 0.5)


@pytest.mark.parametrize("mode", DRAW_MODES)
def test_only_leaf_tiers_suffer_power_loss(mode):
    spec = parse_hierarchy(
        "tiers:ftsp@10x2/rbs@1x2:intermittent-harvesting")
    assert spec.base.power_loss_rate_hz > 0
    assert not _draw(mode, spec, 0, "0", seed=1, duration_s=4.0)[2]
    assert _draw(mode, spec, 1, "0.0", seed=1, duration_s=4.0)[2]
    # The root is always drawn on its own, and never resets.
    _, root = build_member(spec, -1, ROOT_PATH, seed=1, duration_s=4.0)
    assert root.spec.power_loss_rate_hz == 0.0
    if mode == "member":
        _, leaf = build_member(spec, 1, "0.0", seed=1, duration_s=4.0)
        assert leaf.spec.power_loss_rate_hz == spec.base.power_loss_rate_hz
    else:
        # Over a long run the leaves' Poisson resets land in the run.
        _, _, leaves, *_ = draw_members(spec, 1, [0], 1, 2, 2, 400.0)
        assert np.isfinite(leaves).sum(axis=1).min() > 0
        assert (leaves[np.isfinite(leaves)] < 400.0).all()


# ---------------------------------------------------------------------------
# Error compounding across hops
# ---------------------------------------------------------------------------

def _one_row(protocol, beacons, receptions, clock, times, parent):
    """The one-row call of ``hop_error_samples``, as lists."""
    errors, baselines = hop_error_samples(
        protocol, beacons, [receptions], [clock], times, parent)
    return errors[0].tolist(), baselines[0].tolist()


def _clock(drift_ppm, offset_s, horizon_s=8.0):
    return LocalClock(
        ClockSpec(drift_ppm=drift_ppm, jitter_s=0.0,
                  initial_offset_s=offset_s),
        _stream(1, "tiers", f"test{drift_ppm}:{offset_s}", "clock"),
        horizon_s=horizon_s)


def test_composed_baselines_telescope_to_leaf_minus_root():
    """(leaf - gateway) + (gateway - root) == leaf - root, per sample."""
    base = get_scenario("dense-ward")
    duration = 8.0
    sample_times = [0.5 * (i + 1) for i in range(16)]
    root = _clock(0.0, 0.0)
    gateway = _clock(40.0, 0.002)
    leaf = _clock(-80.0, -0.003)
    root_readings = [root.read(t) for t in sample_times]
    gw_beacons = beacon_schedule(2.0, duration, root)
    gw_rx = receive_beacons(gw_beacons, gateway, base.radio,
                            _stream(1, "tiers", "t:gw", "radio"))
    gw_hop, gw_base = _one_row(
        "ftsp", gw_beacons, gw_rx, gateway, sample_times, root_readings)
    gw_readings = [gateway.read(t) for t in sample_times]
    leaf_beacons = beacon_schedule(1.0, duration, gateway)
    leaf_rx = receive_beacons(leaf_beacons, leaf, base.radio,
                              _stream(1, "tiers", "t:leaf", "radio"))
    leaf_hop, leaf_base = _one_row(
        "rbs", leaf_beacons, leaf_rx, leaf, sample_times, gw_readings)

    composed = compose_errors(leaf_base, compose_errors(gw_base, None))
    direct = [leaf.read(t) - root_readings[i]
              for i, t in enumerate(sample_times)]
    assert composed == pytest.approx(direct, abs=1e-12)

    # Synced composition: effective error is hop + parent, exactly.
    eff = compose_errors(leaf_hop, gw_hop)
    assert eff == [h + p for h, p in zip(leaf_hop, gw_hop)]
    # A synced leaf beats its free-running counterfactual.
    assert sum(abs(e) for e in eff) < sum(abs(b) for b in composed)


def test_tier0_members_compose_against_nothing():
    hop = [0.1, -0.2, 0.3]
    assert compose_errors(hop, None) == hop
    assert compose_errors(hop, None) is not hop  # defensive copy


def test_hop_errors_are_signed():
    """Composition needs signs: a fast clock yields positive errors."""
    sample_times = [1.0, 2.0, 3.0]
    fast = _clock(200.0, 0.01)
    parent = [float(t) for t in sample_times]
    _, baselines = _one_row("none", [], [], fast, sample_times, parent)
    assert all(b > 0 for b in baselines)
    slow = _clock(-200.0, -0.01)
    _, baselines = _one_row("none", [], [], slow, sample_times, parent)
    assert all(b < 0 for b in baselines)
