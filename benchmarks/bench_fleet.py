"""EXP-NET benchmark: fleet throughput, serial vs. parallel.

Measures nodes-per-second of the :class:`repro.net.fleet.FleetRunner`
on the ``drifting-wearables`` scenario and the speedup of the sharded
forked-process path over serial execution.  On a machine with 4+
cores the parallel path should clear 2x; the script prints honest
numbers either way (CI containers are often single-core).

The heterogeneous mode times a *generated-app* fleet (every node
binds a `repro.gen` app through a mapping policy — the new hot path
of the pluggable app-source seam) and is gated by the same
``check_regression.py`` baseline as the homogeneous fleets, via the
``fleet-gen`` campaign.

The ``--mega`` mode exercises the streaming executor instead: it
streams a ~6k-node two-tier hierarchy, then a 1,000,001-node one
(1,000 FTSP gateways of 999 RBS leaves each), in waves of
``DEFAULT_WAVE_SUBTREES`` subtrees as the CLI does, and records peak
RSS after each.  An executor that held per-node results would grow
~150x between the runs; the bounded one barely moves, and the
regression gate pins both the nodes/second floor and the RSS ceiling
from the emitted payload.

Run with::

    pytest benchmarks/bench_fleet.py --benchmark-only
    python benchmarks/bench_fleet.py      # emit BENCH_fleet.json
                                          # and BENCH_fleet-gen.json
    python benchmarks/bench_fleet.py --mega   # BENCH_fleet-mega.json
"""

import argparse
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))  # plain-script runs
from conftest import BENCH_DURATION_S  # noqa: E402

from repro.net.fleet import run_fleet  # noqa: E402
from repro.net.streaming import DEFAULT_WAVE_SUBTREES  # noqa: E402
from repro.net.streaming import run_streaming  # noqa: E402
from repro.sweep import BENCH_SCHEMA  # noqa: E402

#: Fleet size of the throughput benchmark.
BENCH_NODES = 64

#: Simulated seconds per node (shorter than the single-node benches:
#: the fleet multiplies per-node work by BENCH_NODES).
FLEET_DURATION_S = min(BENCH_DURATION_S, 10.0)


def _run(workers: int, nodes: int = BENCH_NODES):
    return run_fleet("drifting-wearables", n_nodes=nodes,
                     duration_s=FLEET_DURATION_S, seed=1,
                     workers=workers)


#: Scenario token of the heterogeneous-fleet benchmark: generated
#: suite, load-levelled placement, drifting-wearables surroundings.
GEN_SCENARIO = "gen:drifting-wearables:1:8:balanced"

#: Fleet size of the heterogeneous benchmark (binding resolution is
#: memoised per process, so this mostly times the simulations).
GEN_NODES = 24


def _run_generated(workers: int, nodes: int = GEN_NODES):
    return run_fleet(GEN_SCENARIO, n_nodes=nodes,
                     duration_s=FLEET_DURATION_S, seed=1,
                     workers=workers)


def test_fleet_serial_throughput(benchmark):
    """Time the serial fleet and report nodes/second."""
    result = benchmark(_run, 1)
    assert result.summary.n_nodes == BENCH_NODES
    assert result.nodes_per_second > 0
    print(f"\nserial: {result.nodes_per_second:.1f} nodes/s")


@pytest.mark.parametrize("workers", [2, 4])
def test_fleet_parallel_throughput(benchmark, workers):
    """Time the fleet sharded over the caller and forked children."""
    result = benchmark(_run, workers)
    assert result.mode == "parallel"
    assert result.summary == _run(1).summary  # determinism while timing
    print(f"\n{workers} workers: {result.nodes_per_second:.1f} nodes/s")


def test_fleet_generated_throughput(benchmark):
    """Time the heterogeneous generated-app fleet (serial)."""
    result = benchmark(_run_generated, 1)
    assert result.summary.n_nodes == GEN_NODES
    assert result.summary.source == "generated-suite"
    assert len(result.summary.families) > 1
    print(f"\ngenerated: {result.nodes_per_second:.1f} nodes/s")


def test_fleet_generated_parallel_matches_serial(benchmark):
    """Time the sharded heterogeneous fleet; pin determinism."""
    result = benchmark(_run_generated, 4)
    assert result.mode == "parallel"
    assert result.summary == _run_generated(1).summary
    print(f"\ngenerated x4: {result.nodes_per_second:.1f} nodes/s")


#: Hierarchy of the mega benchmark: 1,000,001 nodes, two tiers.
MEGA_TIERS = "tiers:ftsp@10x1000~0.5/rbs@2x999:dense-ward"

#: The same tiers at ~6k nodes: the small leg of the bounded-memory
#: comparison.
MEGA_SMALL_TIERS = "tiers:ftsp@10x20~0.5/rbs@2x320:dense-ward"

#: Simulated seconds per node of the mega benchmark (the hierarchy
#: multiplies per-node work by ~1M).
MEGA_DURATION_S = 2.0


def measure_mega() -> dict:
    """Hand-timed streaming mega-fleet; returns the BENCH payload.

    Runs the small hierarchy first, then the ~150x larger one, and
    records the process peak RSS after each.  ``rss_growth_mb`` is
    the high-water delta the big run added: near zero for the
    bounded streaming executor, hundreds of MB for anything holding
    per-node results.  ``nodes_per_s`` is the big run's throughput,
    which the regression gate holds to a floor.
    """
    small = run_streaming(MEGA_SMALL_TIERS, duration_s=MEGA_DURATION_S,
                          seed=1, wave_size=DEFAULT_WAVE_SUBTREES)
    big = run_streaming(MEGA_TIERS, duration_s=MEGA_DURATION_S, seed=1,
                        wave_size=DEFAULT_WAVE_SUBTREES)
    nodes = big.summary.n_nodes + small.summary.n_nodes
    wall = big.elapsed_s + small.elapsed_s
    simulated = nodes * MEGA_DURATION_S
    return {
        "aggregates": {},
        "schema": BENCH_SCHEMA,
        "name": "fleet-mega",
        "points": 2,
        "cache": {"hits": 0, "misses": 2},
        "wall_s": wall,
        "executed_wall_s": wall,
        "simulated_s": simulated,
        "sim_s_per_s": simulated / wall if wall > 0 else 0.0,
        "workers": 1,
        "mode": "streaming",
        "results": [],
        "tiers": big.token,
        "duration_s": MEGA_DURATION_S,
        "wave_size": big.wave_size,
        "n_nodes": big.summary.n_nodes,
        "small_nodes": small.summary.n_nodes,
        "nodes_per_s": big.nodes_per_second,
        "small_nodes_per_s": small.nodes_per_second,
        "peak_rss_mb": big.peak_rss_mb,
        "small_rss_mb": small.peak_rss_mb,
        "rss_growth_mb": big.peak_rss_mb - small.peak_rss_mb,
        "scaling_ratio": (big.nodes_per_second
                          / small.nodes_per_second
                          if small.nodes_per_second > 0 else 0.0),
    }


def mega_main(argv=None) -> int:
    """Emit BENCH_fleet-mega.json (throughput + bounded peak RSS)."""
    parser = argparse.ArgumentParser(
        description="emit BENCH_fleet-mega.json (streaming mega-fleet "
                    "throughput and bounded peak RSS)")
    parser.add_argument(
        "--out-dir", default=".",
        help="where to write the artifact (default: cwd)")
    args = parser.parse_args(argv)
    payload = measure_mega()
    path = Path(args.out_dir) / "BENCH_fleet-mega.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(
        f"BENCH_fleet-mega: {payload['n_nodes']:,} nodes at "
        f"{payload['nodes_per_s']:,.0f} nodes/s, peak rss "
        f"{payload['peak_rss_mb']:.0f} MB (+{payload['rss_growth_mb']:.0f}"
        f" MB over the {payload['small_nodes']:,}-node run, "
        f"scaling ratio {payload['scaling_ratio']:.2f})")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    """Plain-script mode: emit the fleet BENCH artifacts."""
    args = list(sys.argv[1:] if argv is None else argv)
    if "--mega" in args:
        args.remove("--mega")
        return mega_main(args)
    from repro.sweep import bench_main

    return bench_main("fleet", args) or bench_main("fleet-gen", args)


if __name__ == "__main__":
    raise SystemExit(main())
