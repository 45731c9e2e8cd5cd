"""Registry semantics, the no-op default and the worker merge."""

import pytest

from repro import obs
from repro.parallel import pool_map


def test_default_is_noop_and_allocates_nothing():
    # Nothing active by default: module-level recording is a no-op
    # and leaves no collector state behind.
    assert obs.active() is None
    obs.add("some.counter")
    obs.gauge("some.gauge", 3.0)
    obs.observe("some.timer", 0.5)
    assert obs.active() is None
    # Spans still measure (result dataclasses report elapsed_s) but
    # record nothing anywhere.
    span = obs.span("some.span").start()
    assert span.stop() >= 0.0
    assert obs.active() is None


def test_counter_gauge_timing_semantics():
    registry = obs.MetricsRegistry()
    registry.add("hits")
    registry.add("hits", 4)
    registry.gauge("wave", 2.0)
    registry.gauge("wave", 1.0)  # below the high-water mark: kept out
    registry.observe("run", 1.0)
    registry.observe("run", 3.0)
    snap = registry.snapshot()
    assert snap["counters"] == {"hits": 5}
    assert snap["gauges"] == {"wave": 2.0}
    assert snap["timings"] == {
        "run": {"count": 2, "total_s": 4.0, "max_s": 3.0}}
    # The deterministic view carries no timings at all.
    assert set(registry.deterministic()) == {"counters", "gauges"}


def test_merge_is_commutative():
    a = obs.MetricsRegistry()
    a.add("n", 2)
    a.gauge("g", 1.0)
    a.observe("t", 2.0)
    b = obs.MetricsRegistry()
    b.add("n", 3)
    b.add("only.b")
    b.gauge("g", 4.0)
    b.observe("t", 1.0)

    ab = obs.MetricsRegistry()
    ab.merge(a.snapshot())
    ab.merge(b.snapshot())
    ba = obs.MetricsRegistry()
    ba.merge(b.snapshot())
    ba.merge(a.snapshot())
    assert ab.snapshot() == ba.snapshot()
    assert ab.counters == {"n": 5, "only.b": 1}
    assert ab.gauges == {"g": 4.0}
    assert ab.timings == {"t": [2, 3.0, 2.0]}


def test_counter_delta_keeps_only_growth():
    registry = obs.MetricsRegistry()
    registry.add("before", 2)
    base = registry.deterministic()
    registry.add("before", 3)
    registry.add("after")
    registry.gauge("g", 1.5)
    delta = obs.counter_delta(base, registry.deterministic())
    assert delta == {
        "counters": {"before": 3, "after": 1},
        "gauges": {"g": 1.5},
    }
    # Replaying the delta on top of the base reconstructs the total.
    replay = obs.MetricsRegistry()
    replay.merge(base)
    replay.merge(delta)
    assert replay.deterministic() == registry.deterministic()


def test_collecting_activates_and_restores():
    assert obs.active() is None
    with obs.collecting() as registry:
        assert obs.active() is registry
        obs.add("seen")
    assert obs.active() is None
    assert registry.counters == {"seen": 1}


def test_collecting_restores_on_error():
    with pytest.raises(RuntimeError):
        with obs.collecting():
            raise RuntimeError("boom")
    assert obs.active() is None


def test_suspended_masks_collection():
    with obs.collecting() as registry:
        obs.add("outside")
        with obs.suspended():
            obs.add("inside")  # cache-dependent work: not recorded
        obs.add("outside")
    assert registry.counters == {"outside": 2}


def test_span_records_only_when_active():
    with obs.collecting() as registry:
        with obs.span("timed"):
            pass
    assert registry.timings["timed"][0] == 1
    with pytest.raises(RuntimeError, match="never started"):
        obs.span("unstarted").stop()


def _observed_square(value):
    obs.add("squares")
    obs.add("work", value)
    return value * value


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_map_merges_worker_registries(workers):
    payloads = [1, 2, 3, 4]
    with obs.collecting() as registry:
        results = pool_map(_observed_square, payloads, workers=workers)
    assert results == [1, 4, 9, 16]
    # Same counters whether the work ran inline or in forked workers.
    assert registry.counters == {"squares": 4, "work": 10}


def test_pool_map_without_registry_stays_plain():
    assert obs.active() is None
    assert pool_map(_observed_square, [2, 3], workers=2) == [4, 9]
    assert obs.active() is None
