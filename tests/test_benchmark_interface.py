"""The calls the benchmark under ``perfbench/`` makes into ``src/``.

``perfbench/`` is frozen, and it names ``repro`` functions, methods,
fields and keyword arguments by hand: the layer wrappers of
``spans.py`` and ``pace.py`` rebind methods by name (nothing else
names ``StreamingRunner._write``), and ``fleet-exact``'s check
rebuilds each ``NodeResult`` without its compute fields.  A rename
in ``src/`` would otherwise show only when the benchmark runs.  These
tests load ``perfbench/{workloads,spans,pace}.py`` unchanged, install
and undo the wrappers, and run each workload's ``run`` and ``check``
on tiny inputs.
"""

import importlib
import inspect
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: The benchmark's modules, imported by these names as ``run.py``
#: and ``child.py`` import them.
MODULES = ("workloads", "spans", "pace")


@pytest.fixture(scope="module")
def bench():
    """``(workloads, spans, pace, pinned)`` of the benchmark."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        modules = [importlib.import_module(name) for name in MODULES]
    finally:
        sys.path.remove(str(PERFBENCH))
    pinned = json.loads((PERFBENCH / "pinned.json").read_text("utf-8"))
    yield (*modules, pinned)
    for name in MODULES:
        sys.modules.pop(name, None)


def _run_and_check(workloads, name, inputs, pinned, tmp_path):
    """One workload pass and its check, which must fail no operation;
    returns the check's info."""
    workload = workloads.WORKLOADS[name]
    result = workload.run(inputs, str(tmp_path), lambda _: nullcontext())
    outcome, info = workload.check(inputs, result, pinned)
    assert not outcome.failed, outcome.messages
    assert outcome.attempted == workload.ops(inputs)
    assert workload.work(inputs, result) > 0
    assert workloads.digest(workload.stats(result))
    return info


def test_layer_wrappers_install_and_undo(bench):
    workloads, spans, pace, _ = bench
    importlib.import_module("repro.eval.__main__")
    for workload in workloads.WORKLOADS.values():
        for module in workload.modules:
            importlib.import_module(module)
    from repro.net.node import NetworkNode
    from repro.net.stats import SyncError

    before = [inspect.getattr_static(NetworkNode, "_sync_errors"),
              inspect.getattr_static(SyncError, "from_samples")]
    spans.install().undo()
    pace.install(pace.Pacer(measure=lambda: pace.REF_S)).undo()
    assert [inspect.getattr_static(NetworkNode, "_sync_errors"),
            inspect.getattr_static(SyncError, "from_samples")] == before


def test_paper_kernels_runs_and_checks(bench, tmp_path):
    workloads, _, _, pinned = bench
    inputs = workloads.WORKLOADS["paper-kernels"].inputs(
        workloads.DEFAULT_SEED)
    info = _run_and_check(workloads, "paper-kernels", inputs, pinned,
                          tmp_path)
    assert info["sim_cycles"] > 0


def test_fleet_exact_runs_and_checks(bench, tmp_path):
    """16 nodes at a seed other than the pinned one, so the check
    compares them with the inline path but not with pinned sums."""
    workloads, _, _, pinned = bench
    inputs = dict(workloads.fleet_inputs(1), n_nodes=16)
    assert inputs["seed"] != pinned["fleet-exact"]["seed"]
    info = _run_and_check(workloads, "fleet-exact", inputs, pinned,
                          tmp_path)
    assert info["compute_requests"] == 16


def test_fleet_stream_runs_checks_and_resumes(bench, tmp_path):
    """A two-tier hierarchy for 1 s; the check runs it a second time
    into the same checkpoint directory, which must resume with zero
    waves.  The pinned per-tier statistics belong to the benchmark's
    hierarchy, so none is compared here."""
    workloads, _, _, pinned = bench
    inputs = dict(workloads.stream_inputs(1),
                  tiers="tiers:ftsp@5x3/rbs@1x4:dense-ward", duration_s=1.0)
    unpinned = dict(pinned, **{"fleet-stream": {"tiers": [{}, {}]}})
    info = _run_and_check(workloads, "fleet-stream", inputs, unpinned,
                          tmp_path)
    assert info["waves"] == 1
