"""The benchmark's workloads: inputs from a seed, the timed public
calls, and the checks on their outputs.

Each workload is one :class:`Workload`.  ``inputs(seed)`` builds a
JSON-able description of everything the program is given; ``run``
makes only public ``repro`` calls on those inputs (the part that is
timed); ``check`` validates the outputs afterwards and counts failed
operations; ``digest`` hashes the simulated statistics, so two
commits can be compared for bit-identical results.

Three workloads: ``paper-kernels`` (the paper's experiments on
``repro.sysc``, then kernels on the cycle-level ``repro.hw``; both
single-process), ``fleet-exact`` and ``fleet-stream``.  The two
single-process parts share one workload so that each run can be long
enough to average out the host's speed swings (see ``NOTES.md``).

``repro`` is imported inside the functions, never at module import:
the benchmark times that import itself (see ``child.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, ContextManager

#: The seed that reproduces the paper's inputs (the repo's own default
#: fleet seed).  On the paper part it selects the paper's Fig. 7
#: ratios.
DEFAULT_SEED = 2014

#: Worker processes of the fleet workloads (the 2-core reference box).
WORKERS = 2

#: Relative tolerance for results pinned from the reference commit.
PINNED_RTOL = 1e-9


@dataclass
class Outcome:
    """Operations attempted by one workload run, and which failed.

    An operation is the workload's unit of work (one simulated
    configuration, fleet node, tier-0 subtree or kernel run).  A check
    names the operations it covers; when it fails, all of them count
    as failed, once each.
    """

    attempted: int
    failed: set = field(default_factory=set)
    messages: list = field(default_factory=list)

    def check(self, ok: bool, ops, message: str) -> bool:
        if not ok:
            self.failed.update(ops)
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok

    def fail_all(self, message: str) -> None:
        self.check(False, range(self.attempted), message)


def close(actual: float, expected: float, rtol: float = PINNED_RTOL) -> bool:
    """``actual`` within ``rtol`` of ``expected`` (relative)."""
    return math.isclose(actual, expected, rel_tol=rtol, abs_tol=0.0)


def digest(value) -> str:
    """Short SHA-256 of a JSON-able value (floats at full precision)."""
    blob = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name (as in ``BENCHMARK.json``).
        modules: modules imported during set-up, beside the CLI.
        rate: name and unit of the throughput, :attr:`work` per host
            second, as the workload's own figures print it.
        inputs: ``seed -> inputs``.
        ops: ``inputs -> operations attempted`` (the ``fail_frac``
            base, known even when the run raises).
        run: ``(inputs, tmp_dir, span) -> result``; ``span(name)`` is
            a context manager around each entry call.
        check: ``(inputs, result, pinned) -> (Outcome, info)``;
            ``pinned`` is all of ``pinned.json``, info holds the
            workload's own reported quantities.
        work: ``(inputs, result) -> units of work done``.
        stats: ``result -> simulated statistics`` (digested).
        parallel: most of the work runs in pool workers on every CPU,
            so pacing marks time the yardstick on each CPU
            (:func:`pace.mark_all`), not only where the main process
            runs.
    """

    name: str
    modules: tuple[str, ...]
    rate: tuple[str, str]
    inputs: Callable[[int], dict]
    ops: Callable[[dict], int]
    run: Callable[[dict, str, Callable[[str], ContextManager]], object]
    check: Callable[[dict, object, dict], tuple[Outcome, dict]]
    work: Callable[[dict, object], float]
    stats: Callable[[object], object]
    parallel: bool = False


# ---------------------------------------------------------------- paper


def fig7_grid() -> tuple[float, ...]:
    """Pathological ratios the paper part may draw for Fig. 7.

    Multiples of 0.05 plus the paper's own ratios; results for every
    grid point are pinned, so every seed is checked exactly.
    """
    from repro.eval import FIG7_RATIOS

    grid = {round(0.05 * i, 2) for i in range(21)} | set(FIG7_RATIOS)
    return tuple(sorted(grid))


def paper_inputs(seed: int) -> dict:
    """The paper's experiments; the seed picks Fig. 7's beat schedules.

    Fig. 7 always spans 0 and 100 % pathological beats; the seed
    draws the five ratios in between from :func:`fig7_grid` (the
    default seed keeps the paper's).  Table I, Fig. 6 and the
    ablations have no free input.
    """
    from repro.eval import DURATION_S, FIG7_RATIOS

    if seed == DEFAULT_SEED:
        ratios = tuple(FIG7_RATIOS)
    else:
        interior = [r for r in fig7_grid() if 0.0 < r < 1.0]
        ratios = (0.0, *sorted(random.Random(seed).sample(interior, 5)), 1.0)
    return {"duration_s": DURATION_S, "fig7_ratios": list(ratios)}


def paper_run(inputs: dict, tmp: str, span) -> dict:
    from repro.eval import (
        run_all_ablations,
        run_fig6,
        run_fig7,
        run_table1,
    )

    duration = inputs["duration_s"]
    with span("eval.table1"):
        table1 = run_table1(duration)
    with span("eval.fig6"):
        fig6 = run_fig6(duration)
    with span("eval.fig7"):
        fig7 = run_fig7(tuple(inputs["fig7_ratios"]), duration)
    with span("eval.ablations"):
        ablations = run_all_ablations(duration)
    return {"table1": table1, "fig6": fig6, "fig7": fig7,
            "ablations": ablations}


def paper_values(result: dict) -> dict:
    """Every power the four experiments report, in µW."""
    return {
        "table1": {
            column.benchmark: {
                "sc_power": column.single.power.total_uw,
                "mc_power": column.multi.power.total_uw,
            }
            for column in result["table1"]
        },
        "fig6": {
            group.benchmark: {
                "single": group.single.total_uw,
                "multi_no_sync": group.multi_no_sync.total_uw,
                "multi_sync": group.multi_sync.total_uw,
            }
            for group in result["fig6"]
        },
        "fig7": {
            f"{point.ratio:.2f}": {
                "sc": point.sc_power_uw,
                "mc": point.mc_power_uw,
            }
            for point in result["fig7"]
        },
        "ablations": [
            [a.name, a.description, a.with_feature_uw, a.without_feature_uw]
            for a in result["ablations"]
        ],
    }


def paper_power_err(values: dict) -> float:
    """Largest relative error of the Table I SC/MC powers vs the paper."""
    from repro.eval import PAPER_TABLE1

    return max(
        abs(values["table1"][name][key] - paper[key]) / paper[key]
        for name, paper in PAPER_TABLE1.items()
        for key in ("sc_power", "mc_power")
    )


def paper_configs(result: dict) -> int:
    """Simulated configurations the experiments report (SC, MC, ...)."""
    return (2 * len(result["table1"]) + 3 * len(result["fig6"])
            + 2 * len(result["fig7"]) + 2 * len(result["ablations"]))


def paper_ops(inputs: dict) -> int:
    """Configurations of Table I (3 x SC/MC), Fig. 6 (3 x 3 bars),
    Fig. 7 (SC/MC per ratio) and the six ablations (with/without)."""
    return 2 * 3 + 3 * 3 + 2 * len(inputs["fig7_ratios"]) + 2 * 6


def paper_check(inputs: dict, result: dict, pinned: dict
                ) -> tuple[Outcome, dict]:
    pinned = pinned["paper-repro"]
    values = paper_values(result)
    outcome = Outcome(attempted=paper_ops(inputs))
    if not outcome.check(paper_configs(result) == outcome.attempted,
                         range(outcome.attempted), "configuration count"):
        return outcome, {"sim_s": 0.0, "paper_power_err": math.nan}
    op = iter(range(outcome.attempted))
    for name, want in pinned["table1"].items():
        got = values["table1"].get(name, {})
        for key in ("sc_power", "mc_power"):
            outcome.check(close(got.get(key, math.nan), want[key]),
                          [next(op)], f"table1 {name} {key}")
    for name, want in pinned["fig6"].items():
        got = values["fig6"].get(name, {})
        for key in ("single", "multi_no_sync", "multi_sync"):
            outcome.check(close(got.get(key, math.nan), want[key]),
                          [next(op)], f"fig6 {name} {key}")
    for ratio in inputs["fig7_ratios"]:
        label = f"{ratio:.2f}"
        got = values["fig7"].get(label, {})
        want = pinned["fig7"][label]
        for key in ("sc", "mc"):
            outcome.check(close(got.get(key, math.nan), want[key]),
                          [next(op)], f"fig7 {label} {key}")
    want_abl = pinned["ablations"]
    for index, got in enumerate(values["ablations"]):
        ops = [next(op), next(op)]
        want = want_abl[index] if index < len(want_abl) else None
        outcome.check(
            want is not None and got[:2] == want[:2]
            and close(got[2], want[2]) and close(got[3], want[3]),
            ops, f"ablation {index} {got[:2]}")
    err = paper_power_err(values)
    outcome.check(close(err, pinned["paper_power_err"], 1e-6),
                  range(2 * len(result["table1"])), "paper_power_err")
    info = {
        "sim_s": paper_configs(result) * inputs["duration_s"],
        "paper_power_err": err,
    }
    return outcome, info


# ---------------------------------------------------------------- fleets

#: Nodes of ``fleet-exact`` (the generated-swarm preset's own suite).
FLEET_NODES = 256

#: Nodes recomputed through the legacy inline path as a reference.
FLEET_REFERENCE_NODES = 8


def fleet_inputs(seed: int) -> dict:
    """A generated-swarm fleet; the seed is the fleet seed.

    The app suite stays the preset's: across suite seeds the same
    fleet's cost varies about 2x, which would drown any speed change.
    The fleet seed still re-draws every node's app, heart rate,
    clock and radio stream.
    """
    return {"scenario": "generated-swarm", "n_nodes": FLEET_NODES,
            "duration_s": 10.0, "seed": seed, "workers": WORKERS}


def fleet_ops(inputs: dict) -> int:
    return inputs["n_nodes"]


def fleet_run(inputs: dict, tmp: str, span):
    from repro.net import run_fleet

    with span("net.fleet.run"):
        return run_fleet(inputs["scenario"], n_nodes=inputs["n_nodes"],
                         duration_s=inputs["duration_s"],
                         seed=inputs["seed"], compute="exact",
                         workers=inputs["workers"])


def _node_stats(node) -> dict:
    return {
        "power": dict(node.power.categories),
        "sync": [asdict(node.sync), asdict(node.steady_sync),
                 asdict(node.unsync), asdict(node.steady_unsync)],
        "heard": node.beacons_heard,
    }


def fleet_stats(result) -> dict:
    return {"summary": asdict(result.summary),
            "nodes": [_node_stats(node) for node in result.nodes]}


def fleet_check(inputs: dict, result, pinned: dict
                ) -> tuple[Outcome, dict]:
    """Node counts, compute keys, a legacy-path reference, pinned sums.

    The first nodes are recomputed with ``compute=None`` (inline
    simulation per node, which the compute fast path must match
    byte for byte); a node's results depend only on the scenario,
    seed, its id and the reference node, so a short fleet reproduces
    them.
    """
    from repro.net import REFERENCE_NODE_ID, run_fleet

    pinned = pinned["fleet-exact"]
    n = inputs["n_nodes"]
    outcome = Outcome(attempted=fleet_ops(inputs))
    nodes = result.nodes
    if not outcome.check(result.summary.n_nodes == n and len(nodes) == n,
                         range(n), "node count"):
        return outcome, {"nodes": len(nodes)}
    compute = result.compute
    outcome.check(compute is not None and compute.requests == n
                  and 1 <= compute.distinct_keys <= n,
                  range(n), f"compute keys {compute}")
    for node in nodes:
        follower = node.node_id != REFERENCE_NODE_ID
        outcome.check(node.power.total_uw > 0
                      and (node.sync.count > 0) == follower
                      and math.isfinite(node.sync.rms_s),
                      [node.node_id], f"node {node.node_id} stats")
    count = min(FLEET_REFERENCE_NODES, n)
    legacy = run_fleet(inputs["scenario"], n_nodes=count,
                       duration_s=inputs["duration_s"], seed=inputs["seed"],
                       compute=None, workers=1)
    for fast, slow in zip(nodes[:count], legacy.nodes):
        outcome.check(
            replace(fast, compute_key="", compute_tier="") == slow,
            [fast.node_id], f"node {fast.node_id} != legacy path")
    if inputs["seed"] == pinned["seed"]:
        summary = result.summary
        outcome.check(compute.distinct_keys == pinned["keys"], range(n),
                      f"distinct keys {compute.distinct_keys}")
        outcome.check(close(summary.mean_power_uw, pinned["mean_power_uw"])
                      and close(summary.sync.rms_s, pinned["sync_rms_s"]),
                      range(n), "pinned fleet summary")
    info = {"nodes": n, "compute_requests": compute.requests,
            "compute_keys": compute.distinct_keys}
    return outcome, info


FLEET_EXACT = Workload(
    name="fleet-exact",
    modules=("repro.net",),
    rate=("nodes_per_s", "node/s"),
    inputs=fleet_inputs,
    ops=fleet_ops,
    run=fleet_run,
    check=fleet_check,
    work=lambda inputs, result: float(result.summary.n_nodes),
    stats=fleet_stats,
)

#: ``mega-campus`` (FTSP backbone over RBS wards) with its backbone
#: fan-out scaled from 320 to 80: 25,681 nodes, 80 tier-0 subtrees.
STREAM_TIERS = "tiers:ftsp@10x80~0.5/rbs@2x320:dense-ward"


#: Tier-0 subtrees per wave of ``fleet-stream``: eight waves, each
#: followed by a checkpoint write.
STREAM_WAVE = 10


def stream_inputs(seed: int) -> dict:
    """A checkpointed streaming hierarchy; the seed is the fleet seed.

    Eight waves, checkpointed after each.  The app power profiles are
    resolved once in the main process (``compute="exact"``, results
    byte-identical to the legacy per-worker memo), so the pool each
    wave forks does not re-derive them and ``repro.sysc`` stays idle.
    """
    return {"tiers": STREAM_TIERS, "duration_s": 2.0, "seed": seed,
            "workers": WORKERS, "wave_size": STREAM_WAVE,
            "compute": "exact"}


def stream_ops(inputs: dict) -> int:
    """Tier-0 subtrees (the streaming executor's unit of work)."""
    from repro.net import parse_hierarchy

    return parse_hierarchy(inputs["tiers"]).subtrees


def _stream_call(inputs: dict, tmp: str):
    from repro.net import run_streaming

    return run_streaming(inputs["tiers"], duration_s=inputs["duration_s"],
                         seed=inputs["seed"], workers=inputs["workers"],
                         wave_size=inputs["wave_size"],
                         compute=inputs["compute"], checkpoint_dir=tmp)


def stream_run(inputs: dict, tmp: str, span):
    with span("net.stream.run"):
        return _stream_call(inputs, tmp)


def stream_stats(result) -> dict:
    return {"summary": asdict(result.summary),
            "tiers": [asdict(tier) for tier in result.tiers]}


def stream_tier_stats(tier, leaf: bool) -> dict:
    """The per-tier statistics checked against their cross-seed mean.

    Every tier's mean power; on the leaf tier (all but a few nodes)
    also the steady-state per-hop sync error.  Upper tiers hold too
    few nodes for a stable error statistic: one missed beacon moves
    their RMS by two orders of magnitude.
    """
    stats = {"mean_power_uw": tier.mean_power_uw}
    if leaf:
        stats["steady_hop_rms_s"] = tier.steady_hop_sync.rms_s
        stats["steady_hop_mean_abs_s"] = tier.steady_hop_sync.mean_abs_s
    return stats


def stream_check(inputs: dict, result, pinned: dict
                 ) -> tuple[Outcome, dict]:
    """Exact counts, statistical sync errors, checkpoint resume.

    Statistics are compared with their mean over the pinned seeds, at
    a tolerance of several of their standard deviations across seeds,
    so a change of random streams (same distributions, other bytes)
    still passes.  A completed checkpoint must resume to the identical
    summary without simulating.
    """
    from repro.net import ERROR_SAMPLE_HZ, parse_hierarchy

    pinned = pinned["fleet-stream"]
    spec = parse_hierarchy(inputs["tiers"])
    outcome = Outcome(attempted=stream_ops(inputs))
    everything = range(outcome.attempted)
    outcome.check(result.completed and result.subtrees_done == spec.subtrees,
                  everything, "run incomplete")
    outcome.check(result.summary.n_nodes == spec.n_nodes,
                  everything, f"node count {result.summary.n_nodes}")
    samples = int(inputs["duration_s"] * ERROR_SAMPLE_HZ)
    tiers = result.tiers
    outcome.check(len(tiers) == len(pinned["tiers"]), everything,
                  "tier count")
    for index, (tier, nodes, want) in enumerate(
            zip(tiers, spec.tier_counts, pinned["tiers"])):
        outcome.check(tier.nodes == nodes
                      and tier.sync.count == nodes * samples,
                      everything, f"tier {tier.name} counts")
        stats = stream_tier_stats(tier, index == len(tiers) - 1)
        for key, (mean, rtol) in want.items():
            value = stats.get(key, math.nan)
            outcome.check(abs(value - mean) <= rtol * mean, everything,
                          f"tier {tier.name} {key} {value!r} vs {mean!r}")
    resumed = _stream_call(inputs, os.path.dirname(result.checkpoint))
    outcome.check(resumed.waves_run == 0 and resumed.summary == result.summary
                  and resumed.tiers == result.tiers, everything,
                  "checkpoint resume differs")
    info = {"nodes": result.summary.n_nodes, "waves": result.waves_run}
    return outcome, info


FLEET_STREAM = Workload(
    name="fleet-stream",
    modules=("repro.net",),
    rate=("nodes_per_s", "node/s"),
    inputs=stream_inputs,
    ops=stream_ops,
    run=stream_run,
    check=stream_check,
    work=lambda inputs, result: float(result.summary.n_nodes),
    stats=stream_stats,
    parallel=True,
)


# ---------------------------------------------------------------- cycle

#: Replicas of the four window-min runs and producers of the two
#: barrier runs.  Host cost per simulated cycle roughly halves from 2
#: to 8 busy cores, so the seed leaves the core counts alone.
WINDOW_CORES = (2, 3, 6, 8)
BARRIER_PRODUCERS = (3, 7)

#: Cycles each window-min run aims at; outputs are sized to it.
WINDOW_BUDGET = 10_000

#: Platform cycles per window-min output and window slot, by replicas
#: (measured: 2 cores ~10.0, 4 ~11.0, 8 ~12.5).
def _cycles_per_slot(cores: int) -> float:
    return 9.5 + 0.375 * cores


def cycle_inputs(seed: int) -> dict:
    """Kernel shapes drawn from the seed within a fixed cycle budget."""
    rng = random.Random(seed)
    window_min = []
    for cores in WINDOW_CORES:
        window = rng.randint(4, 16)
        outputs = max(4, round(
            WINDOW_BUDGET / ((window + 3) * _cycles_per_slot(cores))))
        window_min.append([cores, window, outputs])
    barrier = [[producers, rng.randint(24, 64)]
               for producers in BARRIER_PRODUCERS]
    return {"window_min": window_min, "barrier": barrier}


def cycle_ops(inputs: dict) -> int:
    return len(inputs["window_min"]) + len(inputs["barrier"])


def cycle_run(inputs: dict, tmp: str, span) -> dict:
    from repro.kernels.characterize import (
        characterize_barrier_pipeline,
        characterize_window_min,
    )

    window_min = []
    for cores, window, outputs in inputs["window_min"]:
        with span("kernels.window_min"):
            window_min.append(characterize_window_min(
                cores=cores, window=window, outputs=outputs))
    barrier = []
    for producers, rounds in inputs["barrier"]:
        with span("kernels.barrier"):
            barrier.append(characterize_barrier_pipeline(
                producers=producers, rounds=rounds))
    return {"window_min": window_min, "barrier": barrier}


def window_min_reference(cores: int, window: int, outputs: int
                         ) -> tuple[int, ...]:
    """What the window-min kernel must leave, computed in Python.

    Each core fills ``outputs + window`` words from a 16-bit LCG
    seeded ``10 * id + 3`` and keeps the running minimum (signed
    compare) of its last window.
    """
    results = []
    for core in range(cores):
        state = 10 * core + 3
        buffer = []
        for _ in range(outputs + window):
            state = (state * 25173 + 13849) & 0xFFFF
            buffer.append(state)
        last = buffer[outputs - 1: outputs - 1 + window]
        results.append(min(last, key=lambda w: w - 0x10000 * (w >> 15)))
    return tuple(results)


def barrier_reference(producers: int, rounds: int) -> int:
    """The consumer's expected 16-bit sum over all rounds."""
    return sum(4 * core + r for r in range(1, rounds + 1)
               for core in range(producers)) & 0xFFFF


def cycle_stats(result: dict) -> dict:
    return {kind: [asdict(report) for report in reports]
            for kind, reports in result.items()}


def cycle_cycles(result: dict) -> int:
    return sum(report.cycles for reports in result.values()
               for report in reports)


def cycle_check(inputs: dict, result: dict, pinned: dict
                ) -> tuple[Outcome, dict]:
    runs = cycle_ops(inputs)
    outcome = Outcome(attempted=runs)
    op = 0
    for (cores, window, outputs), report in zip(inputs["window_min"],
                                                result["window_min"]):
        want = window_min_reference(cores, window, outputs)
        outcome.check(report.results == want and report.cycles > 0, [op],
                      f"window-min {cores}x{window}: {report.results}")
        op += 1
    for (producers, rounds), report in zip(inputs["barrier"],
                                           result["barrier"]):
        outcome.check(
            report.consumer_sum == report.expected_sum
            == barrier_reference(producers, rounds) and report.cycles > 0,
            [op], f"barrier {producers}x{rounds}: {report.consumer_sum}")
        op += 1
    cycles = cycle_cycles(result)
    pinned = pinned["cycle-kernels"]
    if inputs == cycle_inputs(pinned["seed"]):
        outcome.check(cycles == pinned["sim_cycles"], range(runs),
                      f"sim_cycles {cycles} != {pinned['sim_cycles']}")
    return outcome, {"sim_cycles": cycles}


# -------------------------------------------------------- paper + kernels


def paper_kernels_inputs(seed: int) -> dict:
    """Both single-process parts, each drawn from the seed."""
    return {"paper": paper_inputs(seed), "kernels": cycle_inputs(seed)}


def paper_kernels_ops(inputs: dict) -> int:
    return paper_ops(inputs["paper"]) + cycle_ops(inputs["kernels"])


def paper_kernels_run(inputs: dict, tmp: str, span) -> dict:
    """The paper's experiments, then the kernels; each part's wall.

    A part's wall leaves out the yardstick runs of a pacing ``span``
    hook (see :class:`pace.Pacer`).
    """
    def now() -> float:
        return time.perf_counter() - getattr(span, "yardstick_s", 0.0)

    start = now()
    paper = paper_run(inputs["paper"], tmp, span)
    middle = now()
    kernels = cycle_run(inputs["kernels"], tmp, span)
    walls = {"paper": middle - start, "kernels": now() - middle}
    return {"paper": paper, "kernels": kernels, "wall_s": walls}


def paper_kernels_check(inputs: dict, result: dict, pinned: dict
                        ) -> tuple[Outcome, dict]:
    """Both parts' checks; the kernel runs count after the paper's.

    The info carries each part's own throughput: simulated seconds per
    host second of the paper part and platform cycles per host second
    of the kernel part.
    """
    paper, paper_info = paper_check(inputs["paper"], result["paper"],
                                    pinned)
    kernels, kernel_info = cycle_check(inputs["kernels"], result["kernels"],
                                       pinned)
    outcome = Outcome(
        attempted=paper.attempted + kernels.attempted,
        failed=paper.failed | {paper.attempted + op for op in kernels.failed},
        messages=paper.messages + kernels.messages,
    )
    walls = result["wall_s"]
    info = {
        "paper_power_err": paper_info["paper_power_err"],
        "sim_cycles": kernel_info["sim_cycles"],
        "sim_s_per_s": paper_info["sim_s"] / walls["paper"],
        "cycles_per_s": kernel_info["sim_cycles"] / walls["kernels"],
    }
    return outcome, info


PAPER_KERNELS = Workload(
    name="paper-kernels",
    modules=("repro.kernels.characterize",),
    rate=("passes_per_s", "pass/s"),
    inputs=paper_kernels_inputs,
    ops=paper_kernels_ops,
    run=paper_kernels_run,
    check=paper_kernels_check,
    work=lambda inputs, result: 1.0,
    stats=lambda result: {"paper": paper_values(result["paper"]),
                          "kernels": cycle_stats(result["kernels"])},
)

WORKLOADS = {w.name: w for w in (PAPER_KERNELS, FLEET_EXACT, FLEET_STREAM)}
