"""EXP-SEARCH benchmark: placement-search throughput.

Times the stochastic mapping search end to end: one seeded annealing
walk (candidate mutation + repair + memoised cost-oracle simulation)
and one greedy walk over a generated application.  The plain-script
mode replays the ``search`` campaign through the sweep subsystem and
emits ``BENCH_search.json`` in the ``repro-bench/1`` schema the CI
regression gate tracks.

Run with::

    pytest benchmarks/bench_search.py --benchmark-only
    python benchmarks/bench_search.py     # emit BENCH_search.json
"""

from repro.gen import suite_tokens
from repro.search.anneal import search_token

#: Seed of the benchmark suite (any value works; fixed for stability).
BENCH_SEED = 2014

#: Proposal budget per timed walk.
BENCH_ITERATIONS = 16


def test_anneal_walk_throughput(benchmark):
    """Time one annealing walk (regenerate + search + simulate)."""
    token = suite_tokens(BENCH_SEED, 1)[0]
    outcome = benchmark(search_token, token, 8, "anneal", "power",
                        BENCH_ITERATIONS, BENCH_SEED, 1.0)
    assert outcome.status in ("ok", "repaired")
    assert outcome.gap >= 0.0


def test_greedy_walk_throughput(benchmark):
    """Time one greedy hill-climb walk."""
    token = suite_tokens(BENCH_SEED, 2)[1]
    outcome = benchmark(search_token, token, 8, "greedy", "power",
                        BENCH_ITERATIONS, BENCH_SEED, 1.0)
    assert outcome.status in ("ok", "repaired")
    assert outcome.best_cost <= outcome.start_cost


def main(argv=None) -> int:
    """Plain-script mode: replay the campaign, emit BENCH_search.json."""
    from repro.sweep import bench_main

    return bench_main("search", argv)


if __name__ == "__main__":
    raise SystemExit(main())
