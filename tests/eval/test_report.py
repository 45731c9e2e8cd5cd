"""Golden-output tests for the report renderers.

``render_sweep``, ``render_net`` and ``render_gen`` feed CI logs and
the README examples; these tests pin their column sets and formatting
byte-for-byte on hand-built, fully deterministic inputs, so layout
drift is a deliberate diff, never an accident.
"""

from dataclasses import replace
from textwrap import dedent

from repro.eval.genexp import GenReport, render_gen
from repro.eval.netexp import NetReport, render_net
from repro.eval.searchexp import SearchReport, render_search
from repro.eval.sweepexp import render_sweep
from repro.gen.explorer import ExplorationRecord
from repro.search.anneal import SearchOutcome
from repro.net.fleet import FleetResult
from repro.net.stats import FleetSummary, GroupStats, SyncError
from repro.sweep.engine import PointResult, SweepResult
from repro.sweep.spec import SweepSpec


def _sweep_fixture() -> SweepResult:
    spec = SweepSpec(
        name="golden",
        runner="app",
        description="golden fixture",
        axes=(
            ("app", ("3L-MF",)),
            ("mode", ("single-core", "multi-core")),
        ),
        base=(("duration_s", 1.0),),
    )
    points = (
        {"duration_s": 1.0, "app": "3L-MF", "mode": "single-core"},
        {"duration_s": 1.0, "app": "3L-MF", "mode": "multi-core"},
    )
    metrics = (
        {"simulated_s": 1.0, "power_uw": 82.51234, "clock_mhz": 2.3,
         "voltage": 0.6, "runtime_overhead": 0.0},
        {"simulated_s": 1.0, "power_uw": 60.25, "clock_mhz": 1.0,
         "voltage": 0.5, "runtime_overhead": 0.0163},
    )
    results = tuple(
        PointResult(index=index, point=point, key=f"k{index}",
                    metrics=metric, wall_s=0.25, cached=index == 1)
        for index, (point, metric) in enumerate(zip(points, metrics))
    )
    return SweepResult(
        spec=spec, results=results, elapsed_s=0.5, cache_hits=1,
        cache_misses=1, workers=1, shards=1, mode="serial",
        fingerprint="deadbeef", cache_stores=1)


def test_render_sweep_golden():
    expected = dedent("""\
        Sweep 'golden' (app runner): 2 point(s), 1 worker(s), serial
          golden fixture
            app         mode  power_uw  clock_mhz  voltage  runtime_overhead  wall_s  cached
          ----------------------------------------------------------------------------------
          3L-MF  single-core     82.51        2.3      0.6                 0   0.250     run
          3L-MF   multi-core     60.25          1      0.5            0.0163   0.250     hit
          cache: 1 hit(s), 1 miss(es), 1 store(s) [deadbeef]
          throughput: 4.0 simulated-s/s (2 sim-s in 0.50 s)""")
    assert render_sweep(_sweep_fixture()) == expected


def _net_fixture() -> NetReport:
    error = SyncError(count=100, mean_abs_s=0.004, rms_s=0.005,
                      max_abs_s=0.009)
    steady = SyncError(count=50, mean_abs_s=0.002, rms_s=0.0025,
                       max_abs_s=0.004)
    free = SyncError(count=100, mean_abs_s=0.040, rms_s=0.050,
                     max_abs_s=0.090)
    steady_free = SyncError(count=50, mean_abs_s=0.030, rms_s=0.035,
                            max_abs_s=0.060)
    summary = FleetSummary(
        scenario="dense-ward", protocol="ftsp", n_nodes=4,
        duration_s=5.0, total_power_uw=400.0, mean_power_uw=100.0,
        mean_radio_uw=2.5, sync=error, steady_sync=steady,
        unsync=free, steady_unsync=steady_free, beacons_sent=10,
        beacons_heard=30, power_loss_resets=1)
    result = FleetResult(
        summary=summary, nodes=(), elapsed_s=2.0,
        nodes_per_second=2.0, workers=1, shards=1, mode="serial")
    return NetReport(scenario="dense-ward", result=result)


def test_render_net_golden():
    expected = dedent("""\
        Network: dense-ward (4 nodes, 5 s, 1 worker(s), serial)
          Metric                       no sync        ftsp
          ----------------------------------------------
          Mean node power (uW)           100.0       100.0
          Radio power (uW)                2.50        2.50
          Beacons sent                      10          10
          Beacons heard                     30          30
          Power-loss resets                  1           1
          Sync err mean (ms)             40.00        4.00
          Sync err RMS (ms)              50.00        5.00
          Steady err mean (ms)           30.00        2.00
          Steady err max (ms)            60.00        4.00
          steady-state error reduced 15.0x by ftsp
          throughput: 2.0 nodes/s (2.00 s)""")
    assert render_net(_net_fixture()) == expected


def _heterogeneous_net_fixture() -> NetReport:
    base = _net_fixture()
    steady = SyncError(count=25, mean_abs_s=0.0021, rms_s=0.003,
                       max_abs_s=0.004)
    summary = FleetSummary(
        scenario="gen:dense-ward:7:12:balanced",
        protocol=base.result.summary.protocol,
        n_nodes=4, duration_s=5.0, total_power_uw=400.0,
        mean_power_uw=100.0, mean_radio_uw=2.5,
        sync=base.result.summary.sync,
        steady_sync=base.result.summary.steady_sync,
        unsync=base.result.summary.unsync,
        steady_unsync=base.result.summary.steady_unsync,
        beacons_sent=10, beacons_heard=30, power_loss_resets=1,
        source="generated-suite",
        families=(
            GroupStats(name="fork-join", nodes=3, mean_power_uw=82.25,
                       mean_floor_mhz=1.52, repairs=2,
                       steady_sync=steady),
            GroupStats(name="pipeline", nodes=1, mean_power_uw=66.0,
                       mean_floor_mhz=0.98, repairs=0,
                       steady_sync=SyncError()),
        ),
        policies=(
            GroupStats(name="balanced", nodes=4, mean_power_uw=78.2,
                       mean_floor_mhz=1.38, repairs=2,
                       steady_sync=steady),
        ))
    result = FleetResult(
        summary=summary, nodes=(), elapsed_s=2.0,
        nodes_per_second=2.0, workers=1, shards=1, mode="serial")
    return NetReport(scenario=summary.scenario, result=result)


def test_render_net_heterogeneous_breakdown_golden():
    """Suite-backed fleets append the per-family/per-policy blocks."""
    expected = dedent("""\
        Network: gen:dense-ward:7:12:balanced (4 nodes, 5 s, 1 worker(s), serial)
          Metric                       no sync        ftsp
          ----------------------------------------------
          Mean node power (uW)           100.0       100.0
          Radio power (uW)                2.50        2.50
          Beacons sent                      10          10
          Beacons heard                     30          30
          Power-loss resets                  1           1
          Sync err mean (ms)             40.00        4.00
          Sync err RMS (ms)              50.00        5.00
          Steady err mean (ms)           30.00        2.00
          Steady err max (ms)            60.00        4.00
          steady-state error reduced 15.0x by ftsp
          per-family breakdown (nodes, floor MHz, power uW, steady err ms):
            fork-join        3    1.52    82.2    2.10
            pipeline         1    0.98    66.0    0.00
          per-policy breakdown (nodes, floor MHz, power uW, steady err ms):
            balanced         4    1.38    78.2    2.10
          throughput: 2.0 nodes/s (2.00 s)""")
    assert render_net(_heterogeneous_net_fixture()) == expected


def _gen_fixture() -> GenReport:
    ok = ExplorationRecord(
        app="G00-pipeline", token="pipeline:7:0", family="pipeline",
        policy="paper", num_cores=8, status="ok", required_mhz=0.9,
        clock_mhz=1.0, voltage=0.5, power_uw=41.3456, duty_cycle=0.8,
        sync_overhead=0.0048, code_overhead=0.012, active_cores=3,
        im_banks=2, simulated_s=1.0)
    repaired = ExplorationRecord(
        app="G01-random-dag", token="random-dag:7:1",
        family="random-dag", policy="balanced", num_cores=8,
        status="repaired", repairs=2, required_mhz=1.2,
        clock_mhz=1.2, voltage=0.55, power_uw=55.0, duty_cycle=0.61,
        sync_overhead=0.0152, code_overhead=0.02, active_cores=8,
        im_banks=5, simulated_s=1.0)
    rejected = ExplorationRecord(
        app="G02-fan-in", token="fan-in:7:2", family="fan-in",
        policy="paper", num_cores=8, status="rejected",
        error="G02-fan-in: out of IM banks at 'fuse_s2'")
    return GenReport(
        seed=7, count=3, families=("pipeline", "random-dag", "fan-in"),
        policies=("paper", "balanced"), num_cores=8, duration_s=1.0,
        records=(ok, repaired, rejected))


def test_render_gen_golden():
    expected = dedent("""\
        Generated workloads: seed 7, 3 app(s) x 2 policy(ies), 8 cores, 1 s
          app               family      policy        status     clock     V  duty   power  sync% banks
          ---------------------------------------------------------------------------------------------
          G00-pipeline      pipeline    paper         ok          1.00  0.50  0.80    41.3   0.48     2
          G01-random-dag    random-dag  balanced      repaired    1.20  0.55  0.61    55.0   1.52     5
          G02-fan-in        fan-in      paper         rejected       -     -     -       -      -     -
          placements: 1 ok, 1 repaired, 1 rejected
          power across placed points: 41.3-55.0 uW
          per-policy placements and power (uW):
            paper            1 placed  reject  50.0%  repair   0.0%   p50 41.3  p90 41.3  max 41.3
            balanced         1 placed  reject   0.0%  repair 100.0%   p50 55.0  p90 55.0  max 55.0""")
    assert render_gen(_gen_fixture()) == expected


def test_render_gen_elides_population_scale_tables():
    """Hundreds of records stay readable: rows elide, summary stays."""
    base = _gen_fixture()
    ok = base.records[0]
    many = GenReport(
        seed=base.seed, count=100, families=base.families,
        policies=("paper",), num_cores=8, duration_s=1.0,
        records=tuple(
            ExplorationRecord(
                app=f"G{index:02d}-pipeline",
                token=f"pipeline:7:{index}", family="pipeline",
                policy="paper", num_cores=8, status="ok",
                required_mhz=ok.required_mhz, clock_mhz=ok.clock_mhz,
                voltage=ok.voltage, power_uw=40.0 + index,
                duty_cycle=ok.duty_cycle,
                sync_overhead=ok.sync_overhead,
                code_overhead=ok.code_overhead,
                active_cores=ok.active_cores, im_banks=ok.im_banks,
                simulated_s=1.0)
            for index in range(100)))
    text = render_gen(many)
    assert "... 52 more record(s) elided" in text
    # only the first 48 rows render
    assert "G47-pipeline" in text and "G48-pipeline" not in text
    # the percentile summary still covers every record
    assert "p50 89.5  p90 129.1  max 139.0" in text


def _search_fixture() -> SearchReport:
    ok = SearchOutcome(
        app="G00-pipeline", token="pipeline:7:0", family="pipeline",
        algorithm="anneal", cost_kind="power", seed=11, iterations=40,
        num_cores=8, duration_s=2.0, status="ok", start_policy="paper",
        paper_feasible=True, paper_cost=72.694, start_cost=72.694,
        best_cost=72.081, gap=0.00843, evaluations=15, accepted=28,
        infeasible=0,
        best_metrics={"im_banks": 2, "active_cores": 3,
                      "power_uw": 72.081})
    repaired = SearchOutcome(
        app="G01-fork-join", token="fork-join:7:1", family="fork-join",
        algorithm="anneal", cost_kind="power", seed=12, iterations=40,
        num_cores=8, duration_s=2.0, status="repaired", repairs=2,
        start_policy="balanced", paper_feasible=False, paper_cost=0.0,
        start_cost=50.0, best_cost=47.5, gap=0.05, evaluations=20,
        accepted=18, infeasible=3,
        best_metrics={"im_banks": 4, "active_cores": 6,
                      "power_uw": 47.5})
    rejected = SearchOutcome(
        app="G02-fan-in", token="fan-in:7:2", family="fan-in",
        algorithm="anneal", cost_kind="power", seed=13, iterations=40,
        num_cores=8, duration_s=2.0, status="rejected",
        error="G02-fan-in: section 'fuse_s2' does not fit IM")
    return SearchReport(
        seed=7, count=3, families=("pipeline", "fork-join", "fan-in"),
        algorithm="anneal", cost="power", iterations=40, num_cores=8,
        duration_s=2.0, outcomes=(ok, repaired, rejected))


def test_render_search_golden():
    expected = dedent("""\
        Placement search: seed 7, 3 app(s), anneal/power, 40 iteration(s), 8 cores, 2 s/eval
          app               family      status   start             paper     best   gap%  evals banks cores
          -------------------------------------------------------------------------------------------------
          G00-pipeline      pipeline    ok       paper             72.69    72.08   0.84     15     2     3
          G01-fork-join     fork-join   repaired balanced              -    47.50   5.00     20     4     6
          G02-fan-in        fan-in      rejected                       -        -      -      -     -     -
          placements: 1 ok, 1 repaired, 1 rejected
          gap over 2 placed app(s): p50 2.92 %, p90 4.58 %, max 5.00 %""")
    assert render_search(_search_fixture()) == expected


def test_render_search_elides_population_scale_tables():
    base = _search_fixture()
    ok = base.outcomes[0]
    many = SearchReport(
        seed=7, count=60, families=base.families, algorithm="anneal",
        cost="power", iterations=40, num_cores=8, duration_s=2.0,
        outcomes=tuple(
            SearchOutcome(
                app=f"G{index:02d}-pipeline",
                token=f"pipeline:7:{index}", family="pipeline",
                algorithm="anneal", cost_kind="power", seed=index,
                iterations=40, num_cores=8, duration_s=2.0,
                status="ok", start_policy="paper", paper_feasible=True,
                paper_cost=100.0, start_cost=100.0,
                best_cost=100.0 - index * 0.5, gap=index * 0.005,
                evaluations=10, accepted=5, infeasible=0,
                best_metrics=dict(ok.best_metrics))
            for index in range(60)))
    text = render_search(many)
    assert "... 12 more outcome(s) elided" in text
    assert "G47-pipeline" in text and "G48-pipeline" not in text
    assert "gap over 60 placed app(s)" in text


def _hierarchy_fixture():
    from repro.net.hierarchy import parse_hierarchy
    from repro.net.stats import TierSummary
    from repro.net.streaming import HierarchyResult

    error = SyncError(count=120, mean_abs_s=0.004, rms_s=0.005,
                      max_abs_s=0.009)
    steady = SyncError(count=60, mean_abs_s=0.002, rms_s=0.0025,
                       max_abs_s=0.004)
    free = SyncError(count=120, mean_abs_s=0.040, rms_s=0.050,
                     max_abs_s=0.090)
    steady_free = SyncError(count=60, mean_abs_s=0.030, rms_s=0.035,
                            max_abs_s=0.060)
    token = "tiers:ftsp@10x2/rbs@2x3:dense-ward"
    summary = FleetSummary(
        scenario=token, protocol="ftsp/rbs", n_nodes=9, duration_s=4.0,
        total_power_uw=900.0, mean_power_uw=100.0, mean_radio_uw=2.5,
        sync=error, steady_sync=steady, unsync=free,
        steady_unsync=steady_free, beacons_sent=14, beacons_heard=40,
        power_loss_resets=1)
    tiers = (
        TierSummary(
            name="backbone", protocol="ftsp", beacon_period_s=10.0,
            fan_out=2, nodes=2, mean_power_uw=110.0, mean_radio_uw=3.0,
            repairs=0, beacons_sent=2, beacons_heard=4,
            power_loss_resets=0, hop_sync=steady,
            steady_hop_sync=SyncError(count=20, mean_abs_s=0.0005,
                                      rms_s=0.0006, max_abs_s=0.001),
            sync=error,
            steady_sync=SyncError(count=20, mean_abs_s=0.0005,
                                  rms_s=0.0006, max_abs_s=0.001),
            unsync=free, steady_unsync=steady_free),
        TierSummary(
            name="ward", protocol="rbs", beacon_period_s=2.0,
            fan_out=3, nodes=6, mean_power_uw=95.0, mean_radio_uw=2.2,
            repairs=1, beacons_sent=12, beacons_heard=36,
            power_loss_resets=1, hop_sync=steady,
            steady_hop_sync=SyncError(count=40, mean_abs_s=0.0012,
                                      rms_s=0.0015, max_abs_s=0.003),
            sync=error,
            steady_sync=SyncError(count=40, mean_abs_s=0.0021,
                                  rms_s=0.0024, max_abs_s=0.004),
            unsync=free, steady_unsync=steady_free),
    )
    return HierarchyResult(
        spec=parse_hierarchy(token), token=token, seed=7,
        duration_s=4.0, wave_size=2, subtrees=2, subtrees_done=2,
        resumed_subtrees=0, waves=1, waves_run=1, completed=True,
        checkpoint="", summary=summary, tiers=tiers, elapsed_s=0.5,
        nodes_per_second=16.0, workers=1, mode="streaming",
        peak_rss_mb=42.0)


def test_render_hierarchy_golden():
    """The per-tier breakdown block is pinned byte-for-byte."""
    from repro.eval.netexp import render_hierarchy

    expected = dedent("""\
        Hierarchy: tiers:ftsp@10x2/rbs@2x3:dense-ward (9 nodes, 2 tier(s), 4 s, 1 worker(s), streaming)
          Metric                       no sync      tiered
          ----------------------------------------------
          Mean node power (uW)           100.0       100.0
          Radio power (uW)                2.50        2.50
          Beacons sent                      14          14
          Beacons heard                     40          40
          Power-loss resets                  1           1
          Sync err mean (ms)             40.00        4.00
          Sync err RMS (ms)              50.00        5.00
          Steady err mean (ms)           30.00        2.00
          Steady err max (ms)            60.00        4.00
          steady-state error reduced 15.0x across 2 hop(s)
          per-tier breakdown (nodes, proto, period s, hop err ms, eff err ms):
            backbone           2  ftsp    10.0    0.50    0.50
            ward               6  rbs      2.0    1.20    2.10
          waves: 1/1 wave(s) x 2 subtree(s)
          throughput: 16.0 nodes/s (0.50 s, peak rss 42 MB)""")
    assert render_hierarchy(_hierarchy_fixture()) == expected


def test_render_hierarchy_partial_run_golden():
    """Interrupted runs surface resume and partial-fold lines."""
    from repro.eval.netexp import render_hierarchy

    partial = replace(
        _hierarchy_fixture(), subtrees_done=1, resumed_subtrees=1,
        completed=False, waves_run=0, checkpoint="ck/stream-abc.json")
    text = render_hierarchy(partial)
    assert "resumed 1 subtree(s) from checkpoint" in text
    assert ("partial: 1/2 subtree(s) folded - rerun with the same "
            "checkpoint dir to finish") in text
    assert "waves: 0/1 wave(s) x 2 subtree(s)" in text
