"""repro.store: canonical atomic JSON writes and tolerant reads."""

import hashlib
import multiprocessing
from pathlib import Path

from repro.store import content_key, entry_path, read_json, write_json


def _hammer(path: str, writer: int) -> None:
    for step in range(100):
        write_json(path, {"writer": writer, "step": step})


def test_write_json_is_canonical_and_leaves_no_temp_file(tmp_path):
    path = write_json(tmp_path / "nested" / "doc.json",
                      {"b": [1, 2], "a": 0.1})
    assert path.read_text(encoding="utf-8") == (
        '{\n  "a": 0.1,\n  "b": [\n    1,\n    2\n  ]\n}\n')
    assert [entry.name for entry in path.parent.iterdir()] == ["doc.json"]
    assert read_json(path) == {"a": 0.1, "b": [1, 2]}


def test_content_key_hashes_compact_canonical_json():
    # Sorted keys, no whitespace: the bytes every key and the app
    # fingerprint (a seed input of the search policies) hash.
    text = b'{"a":0.1,"b":[1,"x"]}'
    key = content_key({"b": [1, "x"], "a": 0.1})
    assert key == hashlib.sha256(text).hexdigest()[:40]


def test_read_json_treats_missing_and_corrupt_files_as_absent(tmp_path):
    assert read_json(tmp_path / "missing.json") is None
    torn = tmp_path / "torn.json"
    torn.write_text('{"a": 1', encoding="utf-8")
    assert read_json(torn) is None


def test_concurrent_writers_of_one_path_all_succeed(tmp_path):
    """Each writer stages its own temp file, so no rename loses its
    source to another process's rename."""
    path = str(tmp_path / "state.json")
    context = multiprocessing.get_context("spawn")
    writers = [context.Process(target=_hammer, args=(path, writer))
               for writer in range(3)]
    for process in writers:
        process.start()
    for process in writers:
        process.join(timeout=60)
    assert all(not process.is_alive() for process in writers)
    assert [process.exitcode for process in writers] == [0, 0, 0]
    assert read_json(path)["step"] == 99
    assert [entry.name for entry in tmp_path.iterdir()] == ["state.json"]


def test_entry_path_fans_out_by_fingerprint_and_key_prefix(tmp_path):
    assert entry_path(tmp_path, "0123abcd", "f00d42") == \
        tmp_path / "0123abcd" / "f0" / "f00d42.json"
    assert entry_path("cache", "fp", "ab") == Path("cache/fp/ab/ab.json")
