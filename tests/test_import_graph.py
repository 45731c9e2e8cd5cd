"""The import layering: each entry point loads only the layers it uses.

Every check runs in a fresh interpreter and inspects its
``sys.modules``.  A paper experiment must not load the cycle-level
platform, numpy or the fleet layers; the CLI must import only the
subcommand it runs; and a run must not import code part-way, since
benchmarks time set-up and run separately and rebind functions only
in modules loaded before the run (see "Import layering" in
``docs/architecture.md``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)

#: Runs ``setup`` then ``run`` and prints, as JSON, the modules loaded
#: by each.  A ``SystemExit`` (``--help``) ends the step it is in.
_PROBE = """
import json, sys
setup, run = sys.argv[1:]
def step(code):
    before = set(sys.modules)
    try:
        exec(code, {})
    except SystemExit:
        pass
    return sorted(set(sys.modules) - before)
print(json.dumps([step(setup), step(run)]))
"""

#: ``python -m repro.eval ARGS``, the way ``-m`` runs it.
_CLI = """
import runpy, sys
sys.argv = ["repro.eval", *{args!r}]
runpy.run_module("repro.eval", run_name="__main__", alter_sys=True)
"""

#: Layers the CLI's start-up must not load.
_NOT_AT_START_UP = ("numpy", "repro.net", "repro.hw", "repro.isa.assembler",
                    "repro.dsp", "repro.signals", "repro.gen",
                    "repro.search", "repro.sweep", "repro.cover")


def _loaded(setup: str, run: str = "") -> tuple[list[str], list[str]]:
    """Modules a fresh interpreter loads in ``setup``, then in ``run``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, setup, run], env=env,
        capture_output=True, text=True, check=True)
    setup_modules, run_modules = json.loads(result.stdout.splitlines()[-1])
    return setup_modules, run_modules


def _within(modules: list[str], packages: tuple[str, ...]) -> list[str]:
    return [name for name in modules
            if any(name == package or name.startswith(package + ".")
                   for package in packages)]


@pytest.mark.parametrize("setup, forbidden", [
    ("import repro.eval.__main__", _NOT_AT_START_UP),
    (_CLI.format(args=["--help"]), _NOT_AT_START_UP),
    (_CLI.format(args=["table1", "--duration", "1"]),
     ("numpy", "repro.net", "repro.hw", "repro.dsp")),
    ("import repro.sysc.engine",
     ("numpy", "repro.hw", "repro.isa.assembler", "repro.dsp",
      "repro.signals")),
    ("import repro.net",
     ("repro.hw", "repro.isa.assembler", "repro.dsp", "repro.signals.ecg",
      "repro.eval", "multiprocessing", "concurrent")),
    (_CLI.format(args=["gen", "--count", "5", "--duration", "1"]),
     ("numpy", "repro.net", "repro.hw")),
    (_CLI.format(args=["cover"]), ("numpy", "repro.net", "repro.hw")),
    (_CLI.format(args=["search", "--count", "2", "--iterations", "8",
                       "--duration", "1"]),
     ("numpy", "repro.net", "repro.hw")),
], ids=["cli-import", "cli-help", "cli-table1", "sysc-engine", "net",
        "cli-gen", "cli-cover", "cli-search"])
def test_entry_point_loads_only_its_layers(setup, forbidden):
    loaded, _ = _loaded(setup)
    assert _within(loaded, forbidden) == []


def test_fleet_runs_import_no_repro_module():
    _, loaded = _loaded("import repro.net", """
from repro.net import run_fleet, run_streaming
run_fleet("generated-swarm", n_nodes=4, duration_s=2.0, compute="exact")
result = run_streaming("tiers:ftsp@5x2/rbs@1x3:dense-ward", duration_s=2.0)
assert result.subtrees == 2
""")
    assert _within(loaded, ("repro",)) == []


def test_pooled_runs_import_no_process_machinery():
    # Pooled runs fork and pipe with the standard library's os layer;
    # a process or thread package loaded part-way would be timed as run.
    _, loaded = _loaded("import repro.net", """
from repro.net import run_fleet, run_streaming
result = run_fleet("generated-swarm", n_nodes=4, duration_s=2.0,
                   compute="exact", workers=2)
assert result.workers == 2
result = run_streaming("tiers:ftsp@5x4/rbs@1x3:dense-ward", duration_s=2.0,
                       workers=2, wave_size=2)
assert result.workers == 2 and result.waves_run == 2
""")
    assert _within(loaded, ("multiprocessing", "concurrent", "queue",
                            "subprocess", "threading")) == []


def test_cover_and_search_runs_import_nothing():
    _, loaded = _loaded("import repro.cover.fuzz, repro.search.anneal", """
from repro.cover.fuzz import fuzz_campaign
from repro.gen.generator import app_from_token, suite_tokens
from repro.search.anneal import search_mapping
report = fuzz_campaign(budget=12, saturation=12)
assert report.status_counts.get("screened")
for token in suite_tokens(7, 2):
    search_mapping(app_from_token(token), iterations=8, duration_s=1.0)
""")
    assert loaded == []


def test_paper_experiments_import_nothing():
    _, loaded = _loaded("import repro.eval", """
from repro.eval import run_all_ablations, run_fig6, run_fig7, run_table1
run_table1(1.0)
run_fig6(1.0)
run_fig7(duration_s=1.0)
run_all_ablations(1.0)
""")
    assert loaded == []
