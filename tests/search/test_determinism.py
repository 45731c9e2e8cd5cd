"""Cross-process determinism of the placement search.

Mirrors ``tests/gen/test_determinism.py``: fresh interpreters with
*different* ``PYTHONHASHSEED`` values must serialise the same search
campaign to the same bytes — the walk must draw nothing from hash
randomisation, set iteration order or any other per-process state.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.eval.__main__ import main
from repro.eval.searchexp import run_search, search_payload

GOLDEN = Path(__file__).parent / "golden"

#: Run a tiny campaign and print its canonical payload.
_DUMP_SCRIPT = """
import json
from repro.eval.searchexp import run_search, search_payload
report = run_search(seed=13, count=3, iterations=8, duration_s=1.0)
print(json.dumps(search_payload(report), sort_keys=True,
                 separators=(",", ":")))
"""

_SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)


def _dump_with_hashseed(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = _SRC_ROOT + os.pathsep + \
        env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _DUMP_SCRIPT],
        env=env, capture_output=True, text=True, check=True)
    return result.stdout


def test_search_is_identical_across_hashseeds():
    dumps = [_dump_with_hashseed(seed) for seed in ("0", "1", "4242")]
    assert dumps[0] == dumps[1] == dumps[2]
    # And the subprocess output matches this very process too.
    local = json.dumps(
        search_payload(run_search(seed=13, count=3, iterations=8,
                                  duration_s=1.0)),
        sort_keys=True, separators=(",", ":")) + "\n"
    assert dumps[0] == local


def test_best_mapping_is_byte_stable_for_one_seed():
    """Same seed => byte-identical best mapping, run after run."""
    first = run_search(seed=13, count=2, iterations=8, duration_s=1.0)
    second = run_search(seed=13, count=2, iterations=8, duration_s=1.0)
    for a, b in zip(first.outcomes, second.outcomes):
        assert a.best_candidate == b.best_candidate
        assert a.best_cost == b.best_cost


def test_search_cli_artifact_matches_golden(tmp_path, capsys):
    out = tmp_path / "search.json"
    argv = ["search", "--seed", "7", "--count", "6", "--json", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == \
        (GOLDEN / "search_seed7_n6.json").read_bytes()
