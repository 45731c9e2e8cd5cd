"""Tests of the benchmark's own code, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import argparse
import json
import os
import time
from types import SimpleNamespace

import pace
import pytest
import run
import spans
import workloads


class FakeClock:
    """A clock the test moves by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _trace(clock: FakeClock, tracer: spans.Tracer, events) -> None:
    """Replay ``(time, name or None)``: a name opens a span, None closes."""
    for when, name in events:
        clock.now = when
        if name is None:
            tracer.end()
        else:
            tracer.begin(name)


# ------------------------------------------------------ self time, coverage


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 6] (which holds b [3, 4]) and c [7, 9].
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    _trace(clock, tracer, [(0, "root"), (1, "a"), (3, "b"), (4, None),
                           (6, None), (7, "c"), (9, None), (10, None)])
    assert tracer.total_s("a") == 5 and tracer.self_s("a") == 4
    assert tracer.total_s("b") == 1 and tracer.self_s("b") == 1
    assert tracer.self_s("c") == 2
    assert tracer.total_s("root") == 10 and tracer.self_s("root") == 3
    assert tracer.roots == {"root"}
    assert tracer.root_covered == 7
    assert spans.coverage(tracer.root_covered, 10) == pytest.approx(0.7)


def test_recursive_span_total_counts_outermost_only():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    _trace(clock, tracer, [(0, "a"), (1, "a"), (3, None), (4, None)])
    assert tracer.calls("a") == 2
    assert tracer.total_s("a") == 4
    assert tracer.self_s("a") == 4  # 2 (inner) + 4 - 2 (outer)


def test_coverage_of_empty_wall_is_zero():
    assert spans.coverage(0.0, 0.0) == 0.0
    assert spans.coverage(1.0, 4.0) == 0.25


def test_merge_adds_snapshots():
    clock = FakeClock()
    worker = spans.Tracer(clock)
    _trace(clock, worker, [(0, "w"), (2, None)])
    worker.add("n", 3)
    tracer = spans.Tracer(clock)
    tracer.merge(worker.snapshot())
    tracer.merge(worker.snapshot())
    assert tracer.calls("w") == 2
    assert tracer.total_s("w") == 4 and tracer.self_s("w") == 4
    assert tracer.counts == {"n": 6}


def _busy(value: int) -> int:
    with spans._active.span("worker.busy"):
        return 2 * value


def test_pool_map_wrapper_merges_worker_spans_and_undoes():
    from repro import parallel

    original = parallel.pool_map
    patches = spans.install()
    try:
        assert parallel.pool_map is not original
        tracer = spans.Tracer()
        with spans.tracing(tracer):
            assert parallel.pool_map(_busy, [1, 2, 3], 2) == [2, 4, 6]
    finally:
        patches.undo()
    assert parallel.pool_map is original
    assert tracer.calls("parallel.pool_map") == 1
    assert tracer.calls("worker.busy") == 3
    assert tracer.counts["parallel.capacity_s"] == pytest.approx(
        2 * tracer.total_s("parallel.pool_map"))


def test_wrappers_record_a_tiny_kernel_run():
    from repro.kernels.characterize import characterize_window_min

    patches = spans.install()
    try:
        tracer = spans.Tracer()
        with spans.tracing(tracer), tracer.span("entry"):
            report = characterize_window_min(cores=2, window=4, outputs=4)
    finally:
        patches.undo()
    assert tracer.calls("hw.run") == 1 and tracer.calls("isa.assemble") == 1
    assert tracer.counts["hw.cycles"] == report.cycles
    assert tracer.counts["hw.instructions"] > 0
    assert report.results == workloads.window_min_reference(2, 4, 4)
    assert 0 < tracer.root_covered <= tracer.total_s("entry")


# ------------------------------------------------------------------ pacing


def test_pacer_scales_each_call_by_the_yardsticks_beside_it():
    # Yardsticks take REF_S, 3 REF_S, REF_S: the first call ran at half
    # the reference speed (mean of REF_S and 3 REF_S is 2 REF_S), the
    # second too.  Host seconds 4 and 2 become reference seconds 2, 1.
    clock = FakeClock()
    marks = iter([pace.REF_S, 3 * pace.REF_S, pace.REF_S])

    def measure():
        took = next(marks)
        clock.now += took
        return took

    pacer = pace.Pacer(clock, measure)
    for host_s in (4.0, 2.0):
        with pacer("op"):
            clock.now += host_s
    assert [op[1] for op in pacer.ops] == [4.0, 2.0]
    assert [op[2] for op in pacer.ops] == pytest.approx([2.0, 1.0])
    assert pacer.yardstick_s == pytest.approx(4 * pace.REF_S)
    assert pacer.host_speed() == pytest.approx(1.0)


def test_pacer_cuts_long_calls_at_checkpoints():
    # segment_s 1: a checkpoint 2 s into the call cuts (the marks say
    # full speed, then half speed), one 0.5 s later does not.
    clock = FakeClock()
    marks = iter([pace.REF_S, pace.REF_S, 3 * pace.REF_S])

    def measure():
        clock.now += 1.0
        return next(marks)

    pacer = pace.Pacer(clock, measure, segment_s=1.0)
    pacer.checkpoint()  # outside an entry call: no cut
    with pacer("op"):
        clock.now += 2.0
        pacer.checkpoint()
        clock.now += 0.5
        pacer.checkpoint()
        clock.now += 0.5
    assert len(pacer.marks) == 3
    assert pacer.ops == [("op", 3.0, pytest.approx(2.0 + 0.5))]
    assert pacer.yardstick_s == 2.0


def test_install_cuts_after_simulate_and_undoes():
    from repro.eval import run_fig6
    from repro.sysc import engine

    original = engine.simulate
    pacer = pace.Pacer(segment_s=0.0)
    patches = pace.install(pacer)
    try:
        with pacer("fig6"):
            run_fig6(1.0)
    finally:
        patches.undo()
    assert engine.simulate is original
    assert len(pacer.marks) == 1 + 9 + 1  # 3 benchmarks x 3 bars, exit
    assert pacer.ops[0][2] > 0


def test_mark_restores_the_cpu_affinity():
    before = os.sched_getaffinity(0)
    assert pace.mark_all() > 0
    assert os.sched_getaffinity(0) == before


def test_yardstick_is_deterministic():
    assert pace.yardstick(500) == pace.yardstick(500)


# --------------------------------------------------------------- fail_frac


def test_outcome_counts_each_failed_operation_once():
    outcome = workloads.Outcome(attempted=4)
    assert outcome.check(True, [0], "fine")
    assert not outcome.check(False, [1, 2], "first")
    assert not outcome.check(False, [2, 3], "second")
    assert outcome.failed == {1, 2, 3}
    assert outcome.messages == ["first", "second"]


def _cycle_result(inputs: dict, *, break_run: int | None = None) -> dict:
    """Reports a correct program would return, one optionally wrong."""
    window_min = [
        SimpleNamespace(results=workloads.window_min_reference(*shape),
                        cycles=100)
        for shape in inputs["window_min"]
    ]
    if break_run is not None:
        broken = window_min[break_run]
        broken.results = (broken.results[0] + 1,) + broken.results[1:]
    barrier = [
        SimpleNamespace(consumer_sum=workloads.barrier_reference(*shape),
                        expected_sum=workloads.barrier_reference(*shape),
                        cycles=100)
        for shape in inputs["barrier"]
    ]
    return {"window_min": window_min, "barrier": barrier}


def test_injected_failed_check_counts_one_operation():
    inputs = workloads.cycle_inputs(7)
    pinned = {"cycle-kernels": {"seed": 1, "sim_cycles": 0}}
    ok, info = workloads.cycle_check(inputs, _cycle_result(inputs), pinned)
    assert ok.failed == set() and info["sim_cycles"] == 600
    bad, _ = workloads.cycle_check(
        inputs, _cycle_result(inputs, break_run=2), pinned)
    assert bad.failed == {2} and bad.attempted == 6


def _record(failed: int = 0, digest: str = "d") -> dict:
    return {"traced": False, "sample_s": 1.0, "attempted": 6,
            "failed": failed, "messages": ["x"] if failed else [],
            "digest": digest, "info": {}, "inputs": {}, "work": 10.0,
            "wall_s": 2.0, "op_ref_s": [1.0, 1.5], "host_speed": 0.8,
            "setup_s": 0.4, "setup_ref_s": 0.5, "peak_rss_mb": 30.0}


BENCH = {"end_to_end": [{"name": "throughput", "unit": "op/s"},
                        {"name": "setup_s", "unit": "s"},
                        {"name": "peak_rss_mb", "unit": "MB"}]}


def _summarise(records: list[dict]) -> dict:
    args = argparse.Namespace(workload="fleet-exact", seed=1, trace=0)
    probes = [{"setup_s": s, "setup_ref_s": s} for s in (0.4, 0.5, 0.6)]
    return run.summarise(args, records, probes, BENCH)


def test_summary_counts_failed_checks_and_crashed_samples(capsys):
    result = _summarise([_record(), _record(failed=2),
                         {"error": "sample 3 timed out"}])
    assert result["attempted"] == 13 and result["failed"] == 3
    assert result["correct"] is False
    assert result["metrics"]["throughput"] == {"value": 4.0, "unit": "op/s"}
    assert "fail_frac        0.230769" in capsys.readouterr().out


def test_summary_is_correct_only_without_failures(capsys):
    result = _summarise([_record(), _record()])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"throughput", "setup_s", "peak_rss_mb"}
    assert result["metrics"]["setup_s"]["value"] == 0.5


def test_paced_rate_takes_each_calls_median():
    # The slow second call of the first sample moves only its median.
    records = [dict(_record(), op_ref_s=ops)
               for ops in ([1.0, 9.0], [1.2, 1.0], [0.8, 1.1])]
    assert run.paced_rate(records) == pytest.approx(10.0 / (1.0 + 1.1))


def test_summary_rejects_samples_that_disagree(capsys):
    result = _summarise([_record(digest="a"), _record(digest="b")])
    assert result["correct"] is False
    assert "disagree" in capsys.readouterr().out


# ------------------------------------------------------------ seed plumbing


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    inputs = workloads.WORKLOADS[name].inputs
    assert inputs(3) == inputs(3)
    assert json.loads(json.dumps(inputs(3))) == inputs(3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_draw_different_inputs(name):
    inputs = workloads.WORKLOADS[name].inputs
    assert len({json.dumps(inputs(seed)) for seed in range(1, 6)}) > 1


def test_default_seed_keeps_the_papers_fig7_ratios():
    from repro.eval import FIG7_RATIOS

    inputs = workloads.paper_inputs(workloads.DEFAULT_SEED)
    assert inputs["fig7_ratios"] == list(FIG7_RATIOS)
    assert set(workloads.paper_inputs(5)["fig7_ratios"]) <= set(
        workloads.fig7_grid())


def test_spawn_hands_the_seed_to_the_child(monkeypatch, tmp_path):
    seen = {}

    class FakePopen:
        returncode = 0

        def __init__(self, command, **kwargs):
            seen["command"] = command
            seen["env"] = kwargs["env"]

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def communicate(self, timeout=None):
            return json.dumps({"work": 1.0}) + "\n", ""

    monkeypatch.setattr(run.subprocess, "Popen", FakePopen)
    monkeypatch.setenv("REPRO_COMPUTE_CACHE", str(tmp_path / "shared"))
    args = argparse.Namespace(workload="paper-kernels", seed=41)
    env = run.child_env(str(tmp_path), str(tmp_path))
    record = run.spawn(args, env, str(tmp_path), 1, False, False, 10.0)
    command = seen["command"]
    assert command[command.index("--seed") + 1] == "41"
    assert command[command.index("--workload") + 1] == "paper-kernels"
    assert "REPRO_COMPUTE_CACHE" not in seen["env"]
    assert record["work"] == 1.0 and record["traced"] is False
    assert not (tmp_path / "sample-1").exists()


def _alive(pid: int) -> bool:
    """Running (not gone, not a zombie awaiting its reaper)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_spawn_kills_an_overrunning_child_and_its_workers(monkeypatch,
                                                          tmp_path):
    pid_file = tmp_path / "worker.pid"
    (tmp_path / "child.py").write_text(
        "import os, sys, time\n"
        "if os.fork() == 0:\n"
        f"    open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "    time.sleep(60)\n"
        "    sys.exit(0)\n"
        "time.sleep(60)\n")
    monkeypatch.setattr(run, "HERE", str(tmp_path))
    args = argparse.Namespace(workload="fleet-exact", seed=1)
    start = time.monotonic()
    record = run.spawn(args, dict(os.environ), str(tmp_path), 1, False,
                       False, 2.0)
    assert record == {"error": "sample 1 timed out"}
    assert time.monotonic() - start < 20
    worker = int(pid_file.read_text())
    deadline = time.monotonic() + 5
    while _alive(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(worker)
