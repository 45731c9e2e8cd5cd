"""Tests for the synthetic workload generator."""

import pytest

from repro.apps.phases import Trigger
from repro.gen import (
    FAMILY_ORDER,
    app_fingerprint,
    app_from_token,
    app_to_mapping,
    app_token,
    generate_app,
    generate_suite,
    parse_app_token,
    suite_tokens,
)
from repro.gen.topology import Shape
from repro.gen.distributions import (
    APP_CYCLES_RANGE,
    DM_RATE_RANGE,
    SYNC_RATE_RANGE,
)

from .rebuild import app_from_mapping


@pytest.mark.parametrize("family", FAMILY_ORDER)
def test_every_family_generates_valid_apps(family):
    for index in range(8):
        app = generate_app(family, seed=123, index=index)
        app.validate()  # no exception
        assert app.phases
        assert app.fs == 250.0
        # Stage 0 streams, so the app has a real-time requirement.
        assert app.phases[0].trigger is Trigger.STREAMING
        assert app.streaming_cycles_per_sample > 0


@pytest.mark.parametrize("family", FAMILY_ORDER)
def test_workloads_stay_in_characterised_bands(family):
    for index in range(6):
        app = generate_app(family, seed=9, index=index)
        low, high = APP_CYCLES_RANGE
        assert low * 0.99 <= app.streaming_cycles_per_sample <= high * 1.01
        for phase in app.phases:
            assert DM_RATE_RANGE[0] <= phase.dm_access_rate \
                <= DM_RATE_RANGE[1]
            if phase.cycles_per_sample > 0:
                rate = phase.sync_ops_per_sample / phase.cycles_per_sample
                assert rate <= SYNC_RATE_RANGE[1] * 1.05
            if phase.replicas > 1:
                assert 0 < phase.lockstep_alignment <= 1


def test_channels_reference_existing_phases():
    for index in range(10):
        app = generate_app("random-dag", seed=77, index=index)
        names = {phase.name for phase in app.phases}
        for channel in app.channels:
            assert channel.consumer in names
            assert set(channel.producers) <= names


def test_same_identity_is_equal_and_same_fingerprint():
    a = generate_app("pipeline", seed=5, index=3)
    b = generate_app("pipeline", seed=5, index=3)
    assert a == b
    assert app_fingerprint(a) == app_fingerprint(b)


def test_different_identities_differ():
    base = app_fingerprint(generate_app("pipeline", seed=5, index=3))
    assert app_fingerprint(generate_app("pipeline", seed=5, index=4)) \
        != base
    assert app_fingerprint(generate_app("pipeline", seed=6, index=3)) \
        != base
    assert app_fingerprint(generate_app("fork-join", seed=5, index=3)) \
        != base


def test_token_round_trip():
    token = app_token("fan-in", 99, 4)
    assert token == "fan-in:99:4"
    assert parse_app_token(token) == ("fan-in", 99, 4, Shape())
    app = app_from_token(token)
    assert app == generate_app("fan-in", 99, 4)


def test_shaped_token_round_trip():
    shape = Shape(depth=10, fan_in=6, diamond=True, triggered=True,
                  replicas=5)
    token = app_token("random-dag", 7, 0, shape=shape)
    assert token == \
        "random-dag:7:0:depth=10+fanin=6+diamond=1+trig=1+reps=5"
    assert parse_app_token(token) == ("random-dag", 7, 0, shape)
    assert app_from_token(token) == \
        generate_app("random-dag", 7, 0, shape=shape)


def test_default_shape_keeps_plain_identity():
    assert app_token("random-dag", 7, 0, shape=Shape()) == \
        "random-dag:7:0"
    assert generate_app("random-dag", 7, 0, shape=Shape()) == \
        generate_app("random-dag", 7, 0)


@pytest.mark.parametrize("bad", [
    "nope:1:2", "pipeline:1", "pipeline:x:2", "pipeline:1:y",
    "random-dag:1:2:", "random-dag:1:2:bogus=3",
    "random-dag:1:2:depth", "random-dag:1:2:depth=x",
    "random-dag:1:2:depth=1", "random-dag:1:2:depth=3+depth=4",
    "random-dag:1:2:diamond=2", "pipeline:1:2:depth=3",
])
def test_malformed_tokens_raise(bad):
    with pytest.raises(ValueError):
        parse_app_token(bad)


def test_shape_knobs_rejected_outside_random_dag():
    with pytest.raises(ValueError, match="random-dag"):
        generate_app("pipeline", 1, 0, shape=Shape(depth=3))


@pytest.mark.parametrize("shape,needle", [
    (dict(depth=1), "depth"),
    (dict(depth=99), "depth"),
    (dict(fan_in=1), "fanin"),
    (dict(fan_in=99), "fanin"),
    (dict(replicas=0), "reps"),
    (dict(replicas=99), "reps"),
])
def test_shape_bounds_name_the_knob(shape, needle):
    with pytest.raises(ValueError, match=needle):
        Shape(**shape)


def test_suite_cycles_families_round_robin():
    tokens = suite_tokens(3, 7)
    families = [parse_app_token(token)[0] for token in tokens]
    expected = [FAMILY_ORDER[i % len(FAMILY_ORDER)] for i in range(7)]
    assert families == expected
    custom = suite_tokens(3, 4, families=("pipeline", "fan-in"))
    assert [parse_app_token(t)[0] for t in custom] == \
        ["pipeline", "fan-in", "pipeline", "fan-in"]


def test_suite_rejects_bad_inputs():
    with pytest.raises(ValueError):
        suite_tokens(1, 0)
    with pytest.raises(ValueError):
        suite_tokens(1, 2, families=("nope",))


def test_mapping_round_trip_preserves_app():
    app = generate_app("fork-join", seed=11, index=2)
    rebuilt = app_from_mapping(app_to_mapping(app))
    assert rebuilt == app
    assert app_fingerprint(rebuilt) == app_fingerprint(app)


def test_generate_suite_matches_tokens():
    apps = generate_suite(21, 5)
    tokens = suite_tokens(21, 5)
    assert [app.name for app in apps] == \
        [f"G{i:02d}-{parse_app_token(t)[0]}"
         for i, t in enumerate(tokens)]
