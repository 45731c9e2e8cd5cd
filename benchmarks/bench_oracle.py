"""Oracle benchmark: analytic population scoring vs exact simulate().

Times :mod:`repro.oracle`'s vectorised analytic model scoring whole
candidate populations per call against the exact cost oracle paying
one ``simulate()`` per mapping.  ``speedup`` is candidates scored per
wall-second, analytic over exact; the CI regression gate holds the
bench's ``sim_s_per_s`` to a floor.  The payload also cross-checks
the analytic scores against the exact costs on the timed candidates
(``max_rel_error``), so a throughput win can never mask an accuracy
regression.

The plain-script mode emits ``BENCH_oracle.json`` carrying the
``repro-bench/1`` keys the merge/regression tooling reads
(``wall_s`` / ``simulated_s`` / ``points`` / ``cache``) plus the
oracle-specific extras.

Run with::

    pytest benchmarks/bench_oracle.py --benchmark-only
    python benchmarks/bench_oracle.py     # emit BENCH_oracle.json
"""

import argparse
import json
import time
from pathlib import Path

from repro.apps import three_lead_mmd
from repro.gen.explorer import repair_app
from repro.oracle import AnalyticModel, sample_candidates
from repro.search.cost import get_oracle
from repro.search.space import plan_from_candidate
from repro.sweep import BENCH_SCHEMA

#: Candidates per analytic call (one vectorised population).
POPULATION = 512

#: Timed analytic calls (the population is re-scored each repeat).
REPEATS = 4

#: Exact ``simulate()`` calls timed for the baseline rate.
EXACT_CALLS = 6

#: Simulated seconds per evaluation (both tiers score the same
#: horizon, so the comparison is apples to apples).
BENCH_DURATION_S = 2.0


def _bench_app():
    """The benchmark workload: 3L-MMD repaired onto 8 cores."""
    app, _ = repair_app(three_lead_mmd(), 8)
    return app


def test_analytic_population_throughput(benchmark):
    """Time one vectorised scoring call over the full population."""
    app = _bench_app()
    candidates = sample_candidates(app, samples=POPULATION, seed=1)
    model = AnalyticModel(app, kind="power",
                          duration_s=BENCH_DURATION_S)
    scores = benchmark(model.score, candidates)
    assert len(scores) == len(candidates)


def test_exact_oracle_throughput(benchmark):
    """Time one exact evaluation (full behavioural simulation)."""
    app = _bench_app()
    candidate = sample_candidates(app, samples=1, seed=1)[0]
    oracle = get_oracle("power", BENCH_DURATION_S)
    plan = plan_from_candidate(app, candidate)
    cost, _ = benchmark(oracle.evaluate, app, plan, 8)
    assert cost > 0


def measure() -> dict:
    """Hand-timed throughput comparison; returns the BENCH payload."""
    app = _bench_app()
    candidates = sample_candidates(app, samples=POPULATION, seed=1)
    model = AnalyticModel(app, kind="power",
                          duration_s=BENCH_DURATION_S)
    model.score(candidates[:4])  # warm caches before timing

    start = time.perf_counter()
    for _ in range(REPEATS):
        scores = model.score(candidates)
    analytic_wall = time.perf_counter() - start
    analytic_scored = REPEATS * len(candidates)
    analytic_per_s = analytic_scored / analytic_wall

    oracle = get_oracle("power", BENCH_DURATION_S)
    exact_costs = []
    start = time.perf_counter()
    for candidate in candidates[:EXACT_CALLS]:
        plan = plan_from_candidate(app, candidate)
        cost, _ = oracle.evaluate(app, plan, 8)
        exact_costs.append(cost)
    exact_wall = time.perf_counter() - start
    exact_per_s = EXACT_CALLS / exact_wall

    max_rel_error = max(
        abs(float(scores.cost[index]) - exact) / exact
        for index, exact in enumerate(exact_costs))
    wall = analytic_wall + exact_wall
    points = analytic_scored + EXACT_CALLS
    simulated = points * BENCH_DURATION_S
    return {
        "aggregates": {},
        "schema": BENCH_SCHEMA,
        "name": "oracle",
        "points": points,
        "cache": {"hits": 0, "misses": points},
        "wall_s": wall,
        "executed_wall_s": wall,
        "simulated_s": simulated,
        "sim_s_per_s": simulated / wall if wall > 0 else 0.0,
        "workers": 1,
        "mode": "serial",
        "results": [],
        "population": POPULATION,
        "repeats": REPEATS,
        "exact_calls": EXACT_CALLS,
        "duration_s": BENCH_DURATION_S,
        "analytic_per_s": analytic_per_s,
        "exact_per_s": exact_per_s,
        "speedup": analytic_per_s / exact_per_s,
        "max_rel_error": max_rel_error,
    }


def main(argv=None) -> int:
    """Plain-script mode: time both tiers, emit BENCH_oracle.json."""
    parser = argparse.ArgumentParser(
        description="emit BENCH_oracle.json (analytic vs exact "
                    "scoring throughput)")
    parser.add_argument(
        "--out-dir", default=".",
        help="where to write the artifact (default: cwd)")
    args = parser.parse_args(argv)
    payload = measure()
    path = Path(args.out_dir) / "BENCH_oracle.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(
        f"BENCH_oracle: {payload['analytic_per_s']:,.0f} analytic "
        f"candidates/s vs {payload['exact_per_s']:,.1f} exact "
        f"evaluations/s -> {payload['speedup']:,.0f}x "
        f"(max rel err {payload['max_rel_error']:.1e})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
