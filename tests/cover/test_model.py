"""Tests for the declarative coverage model."""

from repro.cover.model import (
    ADVERSARIAL_POINTS,
    DIMENSIONS,
    EXCLUDED_COMBOS,
    FAMILY_SPACE,
    CoverageMap,
    all_bins,
    app_depth,
    app_max_fan_in,
    app_max_replicas,
    app_shares_sections,
    bin_key,
    classify,
)
from repro.gen.explorer import evaluate_token
from repro.gen.generator import app_from_token, suite_tokens
from repro.gen.topology import FAMILY_ORDER


def _pair(token, policy="paper", status=None):
    app = app_from_token(token)
    record = evaluate_token(token, policy, duration_s=0.5)
    return app, record


def test_dimensions_are_declared_in_bin_key_order():
    assert [d.name for d in DIMENSIONS] == [
        "family", "depth", "fan_in", "sharing", "outcome", "replicas"]
    assert DIMENSIONS[0].labels == FAMILY_ORDER


def test_family_space_covers_every_family():
    assert set(FAMILY_SPACE) == set(FAMILY_ORDER)
    for family, space in FAMILY_SPACE.items():
        for axis, labels in space.items():
            dimension = next(d for d in DIMENSIONS if d.name == axis)
            assert set(labels) <= set(dimension.labels), (family, axis)


def test_all_bins_deterministic_and_valid():
    bins = all_bins()
    assert bins == all_bins()
    assert len(bins) == len(set(bins))
    for key in bins:
        labels = key.split("/")
        assert len(labels) == len(DIMENSIONS), key
        assert all(label in dimension.labels
                   for label, dimension in zip(labels, DIMENSIONS)), key
    # the pruned space is dramatically smaller than the raw product
    raw = 1
    for dimension in DIMENSIONS:
        raw *= len(dimension.labels)
    assert len(bins) < raw / 5


def test_excluded_combos_absent_from_space():
    for family, depth, fan_in in EXCLUDED_COMBOS:
        for key in all_bins():
            labels = key.split("/")
            assert not (labels[0] == family and labels[1] == depth
                        and labels[2] == fan_in), key


def test_classify_every_generated_family_lands_in_space():
    space = set(all_bins())
    for token in suite_tokens(31, 15):
        app, record = _pair(token)
        key = bin_key(classify(app, record))
        assert key in space, key


def test_classify_structural_helpers():
    app = app_from_token("random-dag:7:0:depth=10+fanin=6+diamond=1")
    assert app_depth(app) == len(app.phases) > 8
    assert app_max_fan_in(app) == 6
    assert app_shares_sections(app)
    assert app_max_replicas(app) >= 1


def test_adversarial_coverpoints_fire_on_shaped_apps():
    cases = {
        "deep-chain": "random-dag:7:0:depth=10",
        "wide-fan-in": "random-dag:7:0:fanin=6",
        "diamond-shared": "random-dag:7:0:diamond=1",
        "triggered-subgraph": "random-dag:7:0:trig=1",
    }
    for name, token in cases.items():
        app = app_from_token(token)
        assert ADVERSARIAL_POINTS[name](app), name
    plain = app_from_token("pipeline:7:0")
    for name, predicate in ADVERSARIAL_POINTS.items():
        assert not predicate(plain), name


def test_coverage_map_records_hits_and_first_tokens():
    cover = CoverageMap()
    token = "pipeline:7:0"
    app, record = _pair(token)
    key, fresh = cover.record(app, record, token=token)
    assert fresh
    assert cover.hits(key) == 1
    assert cover.first_token(key) == token
    key2, fresh2 = cover.record(app, record, token="pipeline:7:0")
    assert key2 == key and not fresh2
    assert cover.hits(key) == 2
    assert cover.covered() == [key]
    assert key not in cover.uncovered()
    assert len(cover.uncovered()) == len(cover.space) - 1
    assert cover.unexpected() == []
