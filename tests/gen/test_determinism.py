"""Cross-process determinism of the workload generator.

The guarantee under test: identical seed => byte-identical generated
``AppSpec``, independent of hash randomisation, set iteration order
or any other per-process state.  Fresh interpreters are launched with
*different* ``PYTHONHASHSEED`` values and must serialise the same
suite to the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.eval.__main__ import main
from repro.gen import app_fingerprint, app_to_mapping, generate_suite

GOLDEN = Path(__file__).parent / "golden"

#: Serialise a small all-family suite canonically and print it.
_DUMP_SCRIPT = """
import json
from repro.gen import generate_suite, app_to_mapping
suite = generate_suite(11, 10)
print(json.dumps([app_to_mapping(app) for app in suite],
                 sort_keys=True, separators=(",", ":")))
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


def test_generation_is_identical_across_hashseeds():
    dumps = [_dump_with_hashseed(seed) for seed in ("0", "1", "4242")]
    assert dumps[0] == dumps[1] == dumps[2]
    # And the subprocess output matches this very process too.
    local = json.dumps(
        [app_to_mapping(app) for app in generate_suite(11, 10)],
        sort_keys=True, separators=(",", ":")) + "\n"
    assert dumps[0] == local


def test_in_process_fingerprints_are_stable():
    first = [app_fingerprint(app) for app in generate_suite(11, 5)]
    second = [app_fingerprint(app) for app in generate_suite(11, 5)]
    assert first == second


def test_gen_cli_artifacts_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--seed", "7", "--count", "4", "--duration", "1",
            "--json"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_gen_cli_artifact_matches_golden(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert main(["gen", "--seed", "7", "--count", "6",
                 "--json", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "gen_seed7_n6.json").read_bytes()
