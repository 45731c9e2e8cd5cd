"""Tests for the content-addressed result cache."""

import json

from repro.sweep import ResultCache, code_fingerprint
from repro.sweep.cache import CACHE_ENV, default_cache_dir


def test_miss_then_put_then_hit(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    point = {"app": "3L-MF", "duration_s": 1.0}
    assert cache.get("app", point) is None
    cache.put("app", point, {"power_uw": 31.0}, wall_s=0.5)
    entry = cache.get("app", point)
    assert entry is not None
    assert entry["metrics"] == {"power_uw": 31.0}
    assert entry["wall_s"] == 0.5
    assert len(cache) == 1


def test_different_point_is_a_miss(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    cache.put("app", {"a": 1}, {"m": 1.0}, wall_s=0.0)
    assert cache.get("app", {"a": 2}) is None
    assert cache.get("fleet", {"a": 1}) is None


def test_fingerprint_change_invalidates(tmp_path):
    old = ResultCache(root=tmp_path, fingerprint="old-code")
    old.put("app", {"a": 1}, {"m": 1.0}, wall_s=0.0)
    new = ResultCache(root=tmp_path, fingerprint="new-code")
    assert new.get("app", {"a": 1}) is None
    # the old namespace is untouched
    assert old.get("app", {"a": 1}) is not None


def test_corrupt_entry_counts_as_miss(tmp_path):
    cache = ResultCache(root=tmp_path, fingerprint="f1")
    point = {"a": 1}
    entry = cache.put("app", point, {"m": 1.0}, wall_s=0.0)
    path = cache._path(entry["key"])
    path.write_text("{not json", encoding="utf-8")
    assert cache.get("app", point) is None
    path.write_text(json.dumps({"schema": "other/9"}), encoding="utf-8")
    assert cache.get("app", point) is None
    # right schema but no metrics payload: also a miss, never a crash
    path.write_text(
        json.dumps({"schema": "repro-sweep-entry/1"}), encoding="utf-8"
    )
    assert cache.get("app", point) is None


def test_code_fingerprint_tracks_source_changes(tmp_path):
    (tmp_path / "mod.py").write_text("X = 1\n")
    first = code_fingerprint(tmp_path)
    assert first == code_fingerprint(tmp_path)
    (tmp_path / "mod.py").write_text("X = 2\n")
    assert code_fingerprint(tmp_path) != first


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv(CACHE_ENV)
    assert default_cache_dir().name == "repro-sweep"
