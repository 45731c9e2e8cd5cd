"""Byte-determinism of the repro-cover/1 artifact."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cover import fuzz_campaign
from repro.eval.__main__ import main
from repro.eval.coverexp import cover_payload, write_cover_json

GOLDEN = Path(__file__).parent / "golden"


def _dumps(report):
    return json.dumps(cover_payload(report), indent=2, sort_keys=True)


def test_payload_is_byte_identical_across_runs(tmp_path):
    a = fuzz_campaign(budget=12, saturation=12, duration_s=0.5)
    b = fuzz_campaign(budget=12, saturation=12, duration_s=0.5)
    assert _dumps(a) == _dumps(b)
    path = write_cover_json(a, tmp_path / "cover.json")
    assert path.read_text(encoding="utf-8") == _dumps(a) + "\n"


def test_payload_schema_invariants():
    report = fuzz_campaign(budget=12, saturation=12, duration_s=0.5)
    payload = cover_payload(report)
    assert payload["schema"] == "repro-cover/1"
    assert payload["covered"] == len(payload["bins"])
    assert payload["covered"] + len(payload["uncovered"]) == \
        payload["total_bins"]
    assert sum(payload["status_counts"].values()) == sum(
        entry["hits"] for entry in payload["bins"].values()) + sum(
        entry["hits"] for entry in payload["unexpected"].values())
    assert set(payload["adversarial"]) == {
        "deep-chain", "wide-fan-in", "diamond-shared",
        "triggered-subgraph"}


def test_artifact_survives_pythonhashseed(tmp_path):
    """Two cold interpreters, adversarial hash seeds, identical bytes."""
    import repro
    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for hashseed, name in (("1", "a.json"), ("42", "b.json")):
        path = tmp_path / name
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "repro.eval", "cover",
             "--budget", "10", "--saturation", "10",
             "--duration", "0.5", "--json", str(path)],
            check=True, env=env, capture_output=True)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_builtin_campaign_matches_golden(tmp_path, capsys):
    """The built-in campaign's artifact is pinned bytes: a change to the
    steering, the shapes or a placement outcome shows here even when it
    still covers as many bins."""
    out = tmp_path / "cover.json"
    assert main(["cover", "--json", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "cover_seed7.json").read_bytes()
