"""Regenerate ``pinned.json``: the reference values the checks use.

Run from the repository root, on the commit whose results are the
reference (only a change that deliberately alters simulated results
re-pins, and says by how much)::

    PYTHONPATH=src python3 perfbench/pin.py

It records the paper experiments' powers (Fig. 7 at every ratio of
the seed grid), the ``fleet-exact`` summary at the default seed, the
``fleet-stream`` per-tier sync-error and power statistics with a
statistical tolerance taken from their spread over
``STREAM_SEEDS``, and the kernels' cycle total at the default seed.
The sections ``paper-repro`` and ``cycle-kernels`` hold the two parts
of the ``paper-kernels`` workload.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile

import workloads as w

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "pinned.json")

#: Fleet seeds the streaming statistics are averaged over.
STREAM_SEEDS = tuple(range(1, 9))

#: Tolerance in sample standard deviations of the per-seed values.
STREAM_SIGMAS = 6.0


def pin_paper() -> dict:
    from repro.eval import run_fig7

    inputs = w.paper_inputs(w.DEFAULT_SEED)
    values = w.paper_values(w.paper_run(inputs, "", _no_span))
    grid = run_fig7(w.fig7_grid(), inputs["duration_s"])
    values["fig7"] = w.paper_values(
        {"table1": [], "fig6": [], "fig7": grid, "ablations": []})["fig7"]
    values["paper_power_err"] = w.paper_power_err(values)
    return values


def pin_fleet() -> dict:
    inputs = w.fleet_inputs(w.DEFAULT_SEED)
    result = w.fleet_run(inputs, "", _no_span)
    return {
        "seed": w.DEFAULT_SEED,
        "keys": result.compute.distinct_keys,
        "mean_power_uw": result.summary.mean_power_uw,
        "sync_rms_s": result.summary.sync.rms_s,
    }


def pin_stream() -> dict:
    per_seed = []
    for seed in STREAM_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            result = w.stream_run(w.stream_inputs(seed), tmp, _no_span)
        last = len(result.tiers) - 1
        per_seed.append([w.stream_tier_stats(tier, index == last)
                         for index, tier in enumerate(result.tiers)])
    tiers = []
    for index, stats in enumerate(per_seed[0]):
        tier = {}
        for key in stats:
            values = [seed[index][key] for seed in per_seed]
            mean = statistics.fmean(values)
            spread = STREAM_SIGMAS * statistics.stdev(values) / mean
            tier[key] = [mean, spread]
        tiers.append(tier)
    return {"seeds": list(STREAM_SEEDS), "sigmas": STREAM_SIGMAS,
            "tiers": tiers}


def pin_cycle() -> dict:
    inputs = w.cycle_inputs(w.DEFAULT_SEED)
    result = w.cycle_run(inputs, "", _no_span)
    return {"seed": w.DEFAULT_SEED, "sim_cycles": w.cycle_cycles(result)}


def _no_span(name):
    from contextlib import nullcontext

    return nullcontext()


def main() -> int:
    pinned = {
        "paper-repro": pin_paper(),
        "fleet-exact": pin_fleet(),
        "fleet-stream": pin_stream(),
        "cycle-kernels": pin_cycle(),
    }
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
