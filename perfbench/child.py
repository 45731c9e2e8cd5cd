"""One run of one workload in a fresh interpreter.

``run.py`` spawns this script once per sample, so every sample pays
what a CLI user pays: interpreter start, importing
``repro.eval.__main__`` and the workload's modules, building the
inputs, then the workload's public calls.  The script prints one JSON
record as its last line of output.

With ``--trace 1`` the layer wrappers of :mod:`spans` are installed and
a :mod:`repro.obs` registry collects the run as well; the record then
carries the per-layer metrics.  Without it, a
:class:`pace.Pacer` times the run against a yardstick, and the record
carries the run's reference seconds beside its host seconds.
With ``--setup-only`` the script stops after set-up and reports only
``setup_s``.

Usage (normally only through ``run.py``)::

    python3 perfbench/child.py --workload NAME --seed N --tmp DIR \\
        --spawn-t T --spawn-mark M [--trace 1] [--setup-only]
"""

import argparse
import importlib
import json
import os
import resource
import time
import traceback
from contextlib import nullcontext

import pace
import spans
import workloads

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "pinned.json")


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: spans.Tracer, registry, times: dict) -> dict:
    """The per-layer metrics of one traced run (0 where a layer idles).

    ``times`` holds this run's ``setup_s``, ``import_s``, ``inputs_s``
    and ``wall_s`` (first call to last result).
    """
    t = tracer
    counters = registry.counters
    obs_s = {name: entry[1] for name, entry in registry.timings.items()}
    wall = times["wall_s"]
    pool_s = t.total_s("parallel.pool_map")
    requests = counters.get("net.compute.requests", 0)
    keys = counters.get("net.compute.keys", 0)
    covered = times["import_s"] + times["inputs_s"] + t.root_covered
    return {
        "sysc.simulate.calls": t.calls("sysc.simulate"),
        "sysc.simulate.s": t.total_s("sysc.simulate"),
        "sysc.simulate.us_per_sim_s": _ratio(
            1e6 * t.total_s("sysc.simulate"),
            t.counts.get("sysc.simulate.sim_s", 0)),
        "net.compute.resolve.s": obs_s.get("net.compute.resolve", 0.0),
        "net.compute.requests": requests,
        "net.compute.keys": keys,
        "net.compute.distinct_frac": _ratio(keys, requests),
        "parallel.pool_map.s": pool_s,
        "parallel.util": _ratio(t.counts.get("parallel.child_cpu_s", 0),
                                t.counts.get("parallel.capacity_s", 0)),
        "parallel.serial_frac": _ratio(wall - pool_s, wall),
        "net.node.build.calls": t.calls("net.node.build"),
        "net.node.build.s": t.total_s("net.node.build"),
        "net.node.sync.s": t.total_s("net.node.sync"),
        "net.hierarchy.hop_error.calls": t.calls("net.hierarchy.hop_error"),
        "net.hierarchy.hop_error.s": t.total_s("net.hierarchy.hop_error"),
        "net.hierarchy.build_member.s":
            t.total_s("net.hierarchy.build_member"),
        "net.stats.sync_error.calls": t.calls("net.stats.sync_error"),
        "net.stats.sync_error.s": t.total_s("net.stats.sync_error"),
        "net.radio.receive.s": t.total_s("net.radio.receive"),
        "net.stream.waves": counters.get("net.stream.waves", 0),
        "net.stream.wave.s": obs_s.get("net.stream.wave", 0.0),
        "net.stream.checkpoint.write.s":
            t.total_s("net.stream.checkpoint.write"),
        "net.stream.checkpoint.bytes":
            t.counts.get("net.stream.checkpoint.bytes", 0),
        "hw.run.s": t.total_s("hw.run"),
        "hw.us_per_cycle": _ratio(1e6 * t.total_s("hw.run"),
                                  t.counts.get("hw.cycles", 0)),
        "hw.instructions": t.counts.get("hw.instructions", 0),
        "hw.im_broadcast_frac": _ratio(t.counts.get("hw.im_merged", 0),
                                       t.counts.get("hw.im_grants", 0)),
        "hw.gated_cycles": t.counts.get("hw.gated_cycles", 0),
        "hw.sync.point_fires": t.counts.get("hw.sync.point_fires", 0),
        "isa.assemble.calls": t.calls("isa.assemble"),
        "isa.assemble.s": t.total_s("isa.assemble"),
        "eval.table1.s": t.self_s("eval.table1"),
        "eval.fig6.s": t.self_s("eval.fig6"),
        "eval.fig7.s": t.self_s("eval.fig7"),
        "eval.ablations.s": t.self_s("eval.ablations"),
        "part.paper.wall_s": sum(t.total_s(f"eval.{name}") for name in (
            "table1", "fig6", "fig7", "ablations")),
        "part.kernels.wall_s": (t.total_s("kernels.window_min")
                                + t.total_s("kernels.barrier")),
        "setup.import_s": times["import_s"],
        "setup.inputs_s": times["inputs_s"],
        "run.wall_s": wall,
        "trace.coverage": spans.coverage(covered,
                                         times["setup_s"] + wall),
        "trace.uncovered.startup_s":
            times["setup_s"] - times["import_s"] - times["inputs_s"],
        "trace.uncovered.run_s": wall - t.root_covered,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--spawn-mark", type=float, required=True,
                        help="the parent's pace.mark_here() before spawning")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; the record holds setup_s")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    with open(PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)

    import_t = time.perf_counter()
    importlib.import_module("repro.eval.__main__")
    for module in workload.modules:
        importlib.import_module(module)
    inputs_t = time.perf_counter()
    inputs = workload.inputs(args.seed)
    ready_t = time.perf_counter()
    setup_s = ready_t - args.spawn_t
    ready_mark = None if args.trace else pace.mark_here()
    setup_ref_s = (None if args.trace else setup_s * 2 * pace.REF_S
                   / (args.spawn_mark + ready_mark))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    tracer = registry = patches = None
    span = pacer = None
    if args.trace:
        from repro import obs

        patches = spans.install()
        tracer = spans.Tracer()
        registry = obs.activate()
        span = tracer.span
    else:
        if workload.parallel:
            span = pacer = pace.Pacer(measure=pace.mark_all)
        else:
            span = pacer = pace.Pacer(first_mark=ready_mark)
        patches = pace.install(pacer)
    first_t = time.perf_counter()
    result = error = None
    try:
        with spans.tracing(tracer) if tracer else nullcontext():
            result = workload.run(inputs, args.tmp, span)
    except Exception:  # reported as failed operations, not a crash
        error = traceback.format_exc()
    end_t = time.perf_counter()
    if args.trace:
        obs.deactivate()
    patches.undo()
    rss = peak_rss_mb()

    outcome = workloads.Outcome(attempted=workload.ops(inputs))
    info: dict = {}
    stats_digest = ""
    if error is not None:
        outcome.fail_all(error.strip().splitlines()[-1])
    else:
        try:
            outcome, info = workload.check(inputs, result, pinned)
            stats_digest = workloads.digest(workload.stats(result))
        except Exception:
            outcome.fail_all("check raised: "
                             + traceback.format_exc().strip().splitlines()[-1])
    times = {
        "setup_s": setup_s,
        "import_s": inputs_t - import_t,
        "inputs_s": ready_t - inputs_t,
        "wall_s": end_t - first_t - (pacer.yardstick_s if pacer else 0.0),
    }
    record = {
        **times,
        "work": workload.work(inputs, result) if error is None else 0.0,
        "setup_ref_s": setup_ref_s,
        "op_ref_s": [ref for _, _, ref in pacer.ops] if pacer else None,
        "host_speed": pacer.host_speed() if pacer else None,
        "peak_rss_mb": rss,
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "messages": outcome.messages,
        "digest": stats_digest,
        "info": info,
        "inputs": inputs,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, registry, times)
        record["roots"] = {name: tracer.self_s(name)
                           for name in sorted(tracer.roots)}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
