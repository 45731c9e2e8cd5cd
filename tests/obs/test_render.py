"""Golden render and artifact-shape tests for repro-metrics/1."""

import json

from repro import obs
from repro.obs import (
    METRICS_SCHEMA,
    metrics_payload,
    render_metrics,
    write_metrics_json,
)

GOLDEN = """\
Metrics: 4 counter(s), 1 gauge(s), 1 timer(s)
  counters:
    net
      stream
        subtrees      3
        waves         2
    sweep
      cache
        hit       1,200
        miss          7
  gauges:
    net.stream.wave_size  2
  timings (wall-clock; excluded from determinism):
    net.stream.run      1 call(s)      1.500 s total     1.500 s max"""


def _registry() -> obs.MetricsRegistry:
    registry = obs.MetricsRegistry()
    registry.add("sweep.cache.hit", 1200)
    registry.add("sweep.cache.miss", 7)
    registry.add("net.stream.waves", 2)
    registry.add("net.stream.subtrees", 3)
    registry.gauge("net.stream.wave_size", 2.0)
    registry.observe("net.stream.run", 1.5)
    return registry


def test_render_metrics_golden():
    assert render_metrics(_registry()) == GOLDEN


def test_render_empty_registry():
    assert render_metrics(obs.MetricsRegistry()) == \
        "Metrics: 0 counter(s), 0 gauge(s), 0 timer(s)"


def test_metrics_payload_shape():
    payload = metrics_payload(_registry(), experiment="net")
    assert payload["schema"] == METRICS_SCHEMA == "repro-metrics/1"
    assert payload["experiment"] == "net"
    assert payload["counters"]["sweep.cache.hit"] == 1200
    assert payload["timings"]["net.stream.run"]["count"] == 1


def test_write_metrics_json_round_trips(tmp_path):
    path = tmp_path / "deep" / "metrics.json"
    write_metrics_json(_registry(), path, experiment="sweep")
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["schema"] == "repro-metrics/1"
    assert payload["experiment"] == "sweep"
    assert payload["gauges"] == {"net.stream.wave_size": 2.0}
