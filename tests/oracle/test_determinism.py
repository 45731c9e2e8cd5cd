"""Cross-process determinism of the vectorised analytic model.

Mirrors ``tests/search/test_determinism.py``: fresh interpreters with
*different* ``PYTHONHASHSEED`` values must score the same population
to the same bytes — the numpy reduction must draw nothing from hash
randomisation or per-process state.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Score a sampled population and print every array bit-exactly.
_MODEL_DUMP_SCRIPT = """
import json
from repro.apps import three_lead_mmd
from repro.gen.explorer import repair_app
from repro.oracle import sample_candidates, score_population
app, _ = repair_app(three_lead_mmd(), 8)
candidates = sample_candidates(app, samples=8, seed=5)
scores = score_population(app, candidates, duration_s=1.0)
print(json.dumps({
    "cost": [value.hex() for value in scores.cost.tolist()],
    "power_uw": [value.hex() for value in scores.power_uw.tolist()],
    "clock_mhz": [value.hex() for value in scores.clock_mhz.tolist()],
    "voltage": [value.hex() for value in scores.voltage.tolist()],
}, sort_keys=True, separators=(",", ":")))
"""

_SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)


def _dump_with_hashseed(script: str, hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = _SRC_ROOT + os.pathsep + \
        env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True)
    return result.stdout


def test_population_scores_identical_across_hashseeds():
    dumps = [_dump_with_hashseed(_MODEL_DUMP_SCRIPT, seed)
             for seed in ("0", "1", "4242")]
    assert dumps[0] == dumps[1] == dumps[2]
