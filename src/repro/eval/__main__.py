"""Command-line entry point for the experiment suite.

Usage::

    python -m repro.eval table1
    python -m repro.eval fig6
    python -m repro.eval fig7
    python -m repro.eval ablations
    python -m repro.eval net [--scenario S] [--nodes N] [--workers W]
                             [--suite-seed S --suite-count N
                              --policy P --families F ...] [--json F]
    python -m repro.eval net --tiers SPEC [--stream] [--wave N]
                             [--checkpoint-dir D] [--max-waves N]
    python -m repro.eval sweep [--spec NAME | --spec-file F] [--workers W]
    python -m repro.eval gen [--seed S] [--count N] [--policies P ...]
    python -m repro.eval search [--seed S] [--count N] [--algorithm A]
    python -m repro.eval cover [--seed S] [--budget N] [--random]
    python -m repro.eval all

Every experiment is its own subcommand with its own flags; ``sweep``
runs a declarative campaign through :mod:`repro.sweep` (cached,
sharded) and can emit JSON/CSV artifacts.

Usage errors — malformed tokens, unknown presets, conflicting flags,
unreadable spec files — exit 2 with a one-line message on stderr
(the argparse convention), never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .. import obs
from ..gen.policies import POLICIES
from ..gen.topology import FAMILY_ORDER
from ..net.fleet import DEFAULT_SEED
from ..net.hierarchy import HIERARCHIES
from ..net.scenarios import SCENARIOS
from ..net.streaming import DEFAULT_WAVE_SUBTREES, run_streaming
from ..net.timesync import PROTOCOLS
from ..search import ALGORITHMS, ORACLE_KINDS
from ..sweep import (
    ResultCache,
    SPECS,
    get_spec,
    run_sweep,
    spec_from_mapping,
    write_bench_json,
    write_csv,
)
from .ablations import run_all_ablations
from .coverexp import (
    COVER_BUDGET,
    COVER_CORES,
    COVER_DURATION_S,
    COVER_POLICIES,
    COVER_SATURATION,
    COVER_SEED,
    run_cover,
    write_cover_json,
)
from .fig6 import run_fig6
from .fig7 import run_fig7
from .genexp import (
    GEN_COUNT,
    GEN_DURATION_S,
    GEN_POLICIES,
    GEN_SEED,
    run_gen,
    write_gen_json,
)
from .netexp import (
    NET_DURATION_S,
    NET_SUITE_COUNT,
    NET_SUITE_POLICY,
    NET_SUITE_SEED,
    run_net,
    write_hierarchy_json,
    write_net_json,
)
from .report import (
    render_ablations,
    render_cover,
    render_fig6,
    render_fig7,
    render_gen,
    render_hierarchy,
    render_net,
    render_search,
    render_sweep,
    render_table1,
)
from .searchexp import (
    SEARCH_ALGORITHM,
    SEARCH_CLI_ITERATIONS,
    SEARCH_COST,
    SEARCH_COUNT,
    SEARCH_DURATION_S,
    SEARCH_SEED,
    run_search,
    write_search_json,
)
from .runconfig import DURATION_S
from .table1 import run_table1


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _add_duration(parser: argparse.ArgumentParser,
                  default_hint: str) -> None:
    parser.add_argument(
        "--duration", type=_positive_float, default=None,
        help=f"simulated seconds (default: {default_hint})")


def _add_metrics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", nargs="?", const="", default=None, metavar="PATH",
        help="collect run metrics and print them after the report; "
             "with PATH, also write the repro-metrics/1 artifact "
             "there")


def _add_net_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default=None,
        help="fleet scenario (default: drifting-wearables)")
    parser.add_argument(
        "--nodes", type=_nonnegative_int, default=None,
        help="fleet size (default: the scenario preset)")
    parser.add_argument(
        "--protocol", choices=sorted(PROTOCOLS), default=None,
        help="override the scenario's sync protocol")
    parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes of the fleet runner (default: 1)")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"fleet seed (default: {DEFAULT_SEED})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Reproduce the paper's tables and figures, "
                    "or run declarative sweeps.")
    commands = parser.add_subparsers(dest="experiment", required=True,
                                     metavar="experiment")
    paper_default = f"the paper's {DURATION_S:g} s"
    for name, text in (("table1", "reproduce Table I"),
                       ("fig6", "reproduce Figure 6"),
                       ("fig7", "reproduce Figure 7"),
                       ("ablations", "run the mechanism ablations"),
                       ("all", "run every experiment")):
        sub = commands.add_parser(name, help=text)
        _add_duration(sub, paper_default)
        _add_metrics(sub)
        if name == "all":
            _add_net_flags(sub)
    net = commands.add_parser(
        "net", help="run the fleet network experiment")
    _add_duration(net, f"{NET_DURATION_S:g} s")
    _add_metrics(net)
    _add_net_flags(net)
    net.add_argument(
        "--suite-seed", type=int, default=None, metavar="SEED",
        help="draw each node's app from a generated suite with this "
             f"seed (default when any suite flag is given: "
             f"{NET_SUITE_SEED})")
    net.add_argument(
        "--suite-count", type=_positive_int, default=None, metavar="N",
        help=f"generated-suite size (default: {NET_SUITE_COUNT})")
    net.add_argument(
        "--families", nargs="+", choices=list(FAMILY_ORDER),
        default=None, metavar="FAMILY",
        help="topology families of the generated suite "
             f"(default: all of {', '.join(FAMILY_ORDER)})")
    net.add_argument(
        "--policy", choices=sorted(POLICIES), default=None,
        help="mapping policy placing every generated app "
             f"(default: {NET_SUITE_POLICY})")
    net.add_argument(
        "--compute-cache", default=None, metavar="DIR",
        help="on-disk compute-cache root shared across runs "
             "(default: $REPRO_COMPUTE_CACHE, else in-process only)")
    net.add_argument(
        "--tiers", default=None, metavar="SPEC",
        help="run a hierarchical fleet instead: preset name "
             f"({', '.join(sorted(HIERARCHIES))}) or a "
             "'tiers:<proto@<period>x<fan>[~<scale>]/...>:<base>' "
             "token")
    net.add_argument(
        "--stream", action="store_true",
        help="run the hierarchy through the streaming executor in "
             f"bounded-memory waves (default: "
             f"{DEFAULT_WAVE_SUBTREES} subtrees/wave)")
    net.add_argument(
        "--wave", type=_positive_int, default=None, metavar="N",
        help="tier-0 subtrees per wave (implies --stream)")
    net.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist the partial merge after every wave; a rerun "
             "with the same spec resumes from it (implies --stream)")
    net.add_argument(
        "--max-waves", type=_positive_int, default=None, metavar="N",
        help="stop after N waves - the deterministic kill point the "
             "resume checks use (implies --stream)")
    net.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the deterministic repro-net/1|2 artifact here "
             "(repro-net/3 with --tiers; skipped while a --max-waves "
             "run is incomplete)")

    sweep = commands.add_parser(
        "sweep", help="run a declarative sweep campaign (cached)")
    source = sweep.add_mutually_exclusive_group()
    source.add_argument(
        "--spec", choices=sorted(SPECS), default="demo",
        help="built-in campaign to run (default: demo)")
    source.add_argument(
        "--spec-file", default=None, metavar="FILE",
        help="JSON file holding a sweep spec "
             "(see repro.sweep.spec_from_mapping)")
    sweep.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes for cache misses (default: 1)")
    sweep.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_SWEEP_CACHE "
             "or ~/.cache/repro-sweep)")
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="disable cache reads and writes")
    sweep.add_argument(
        "--force", action="store_true",
        help="re-execute every point (results refresh the cache)")
    sweep.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the BENCH JSON artifact here")
    sweep.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the flat CSV table here")
    sweep.add_argument(
        "--list", action="store_true",
        help="list built-in campaigns and exit")
    _add_metrics(sweep)

    gen = commands.add_parser(
        "gen", help="explore generated synthetic workloads")
    gen.add_argument(
        "--seed", type=int, default=GEN_SEED,
        help=f"suite seed (default: {GEN_SEED})")
    gen.add_argument(
        "--count", type=_positive_int, default=GEN_COUNT,
        help=f"generated applications (default: {GEN_COUNT})")
    gen.add_argument(
        "--families", nargs="+", choices=list(FAMILY_ORDER),
        default=None, metavar="FAMILY",
        help="topology families to cycle through "
             f"(default: all of {', '.join(FAMILY_ORDER)})")
    gen.add_argument(
        "--policies", nargs="+", choices=sorted(POLICIES),
        default=list(GEN_POLICIES), metavar="POLICY",
        help="mapping policies to compare "
             f"(default: {' '.join(GEN_POLICIES)})")
    gen.add_argument(
        "--cores", type=_positive_int, default=8,
        help="provisioned platform width (default: 8)")
    _add_duration(gen, f"{GEN_DURATION_S:g} s")
    gen.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the deterministic exploration artifact here")
    _add_metrics(gen)

    cover = commands.add_parser(
        "cover", help="run the coverage-driven workload fuzz loop")
    cover.add_argument(
        "--seed", type=int, default=COVER_SEED,
        help=f"campaign seed (default: {COVER_SEED})")
    cover.add_argument(
        "--budget", type=_positive_int, default=COVER_BUDGET,
        help=f"maximum fuzz attempts (default: {COVER_BUDGET})")
    cover.add_argument(
        "--saturation", type=_positive_int, default=COVER_SATURATION,
        help="stop after this many attempts with no new bin "
             f"(default: {COVER_SATURATION})")
    cover.add_argument(
        "--policies", nargs="+", choices=sorted(POLICIES),
        default=list(COVER_POLICIES), metavar="POLICY",
        help="mapping policies screened per app "
             f"(default: {' '.join(COVER_POLICIES)})")
    cover.add_argument(
        "--cores", type=_positive_int, default=COVER_CORES,
        help=f"provisioned platform width (default: {COVER_CORES})")
    _add_duration(cover, f"{COVER_DURATION_S:g} s per exact point")
    cover.add_argument(
        "--random", action="store_true",
        help="blind baseline: same budget, no coverage targeting")
    cover.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the deterministic repro-cover/1 artifact here")
    _add_metrics(cover)

    search = commands.add_parser(
        "search", help="search generated apps for better placements")
    search.add_argument(
        "--seed", type=int, default=SEARCH_SEED,
        help=f"suite seed (default: {SEARCH_SEED})")
    search.add_argument(
        "--count", type=_positive_int, default=SEARCH_COUNT,
        help=f"generated applications (default: {SEARCH_COUNT})")
    search.add_argument(
        "--families", nargs="+", choices=list(FAMILY_ORDER),
        default=None, metavar="FAMILY",
        help="topology families to cycle through "
             f"(default: all of {', '.join(FAMILY_ORDER)})")
    search.add_argument(
        "--algorithm", choices=list(ALGORITHMS),
        default=SEARCH_ALGORITHM,
        help=f"search algorithm (default: {SEARCH_ALGORITHM})")
    search.add_argument(
        "--cost", choices=list(ORACLE_KINDS), default=SEARCH_COST,
        help=f"cost oracle to minimise (default: {SEARCH_COST})")
    search.add_argument(
        "--iterations", type=_positive_int,
        default=SEARCH_CLI_ITERATIONS,
        help=f"proposals per app (default: {SEARCH_CLI_ITERATIONS})")
    search.add_argument(
        "--cores", type=_positive_int, default=8,
        help="provisioned platform width (default: 8)")
    _add_duration(search, f"{SEARCH_DURATION_S:g} s per oracle call")
    search.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the deterministic repro-search/1 artifact here")
    _add_metrics(search)
    return parser


def _run_sweep_command(args: argparse.Namespace) -> str:
    if args.list:
        return "\n".join(
            f"{name:<12} {SPECS[name].description}"
            for name in sorted(SPECS))
    if args.spec_file is not None:
        with open(args.spec_file, encoding="utf-8") as handle:
            spec = spec_from_mapping(json.load(handle))
    else:
        spec = get_spec(args.spec)
    cache = None
    if not args.no_cache and args.cache_dir is not None:
        cache = ResultCache(root=args.cache_dir)
    result = run_sweep(spec, workers=args.workers, cache=cache,
                       use_cache=not args.no_cache, force=args.force)
    if args.json is not None:
        write_bench_json(result, args.json)
    if args.csv is not None:
        write_csv(result, args.csv)
    return render_sweep(result)


def _dispatch(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    """Run the parsed experiment and print its report."""
    experiment = args.experiment

    if experiment == "sweep":
        print(_run_sweep_command(args))
        return 0

    if experiment == "gen":
        report = run_gen(
            seed=args.seed,
            count=args.count,
            families=tuple(args.families) if args.families else None,
            policies=tuple(args.policies),
            num_cores=args.cores,
            duration_s=args.duration if args.duration is not None
            else GEN_DURATION_S)
        if args.json is not None:
            write_gen_json(report, args.json)
        print(render_gen(report))
        return 0

    if experiment == "cover":
        report = run_cover(
            seed=args.seed,
            budget=args.budget,
            saturation=args.saturation,
            policies=tuple(args.policies),
            num_cores=args.cores,
            duration_s=args.duration if args.duration is not None
            else COVER_DURATION_S,
            targeted=not args.random)
        if args.json is not None:
            write_cover_json(report, args.json)
        print(render_cover(report))
        return 0

    if experiment == "search":
        report = run_search(
            seed=args.seed,
            count=args.count,
            families=tuple(args.families) if args.families else None,
            algorithm=args.algorithm,
            cost=args.cost,
            iterations=args.iterations,
            num_cores=args.cores,
            duration_s=args.duration if args.duration is not None
            else SEARCH_DURATION_S)
        if args.json is not None:
            write_search_json(report, args.json)
        print(render_search(report))
        return 0

    duration = getattr(args, "duration", None)
    paper_duration = DURATION_S if duration is None else duration
    sections: list[str] = []
    if experiment in ("table1", "all"):
        sections.append(render_table1(run_table1(paper_duration)))
    if experiment in ("fig6", "all"):
        sections.append(render_fig6(run_fig6(paper_duration)))
    if experiment in ("fig7", "all"):
        sections.append(render_fig7(run_fig7(
            duration_s=paper_duration)))
    if experiment in ("ablations", "all"):
        sections.append(render_ablations(run_all_ablations(
            paper_duration)))
    if experiment in ("net", "all"):
        net_duration = NET_DURATION_S if duration is None else duration
        tiers = getattr(args, "tiers", None)
        streaming = getattr(args, "stream", False) or any(
            getattr(args, name, None) is not None
            for name in ("wave", "checkpoint_dir", "max_waves"))
        if tiers is None and streaming:
            parser.error(
                "--stream/--wave/--checkpoint-dir/--max-waves need "
                "--tiers")
        if tiers is not None:
            flat = [flag for flag, value in (
                ("--scenario", args.scenario),
                ("--nodes", args.nodes),
                ("--protocol", args.protocol),
                ("--suite-seed", getattr(args, "suite_seed", None)),
                ("--suite-count", getattr(args, "suite_count", None)),
                ("--families", getattr(args, "families", None)),
                ("--policy", getattr(args, "policy", None)),
            ) if value is not None]
            if flat:
                parser.error(
                    f"--tiers conflicts with {', '.join(flat)}")
            wave = args.wave if args.wave is not None else (
                DEFAULT_WAVE_SUBTREES if streaming else None)
            result = run_streaming(
                tiers, duration_s=net_duration, seed=args.seed,
                workers=args.workers, wave_size=wave,
                checkpoint_dir=args.checkpoint_dir,
                max_waves=args.max_waves,
                compute_cache=args.compute_cache)
            if args.json is not None and result.completed:
                write_hierarchy_json(result, args.json)
            sections.append(render_hierarchy(result))
            print("\n\n".join(sections))
            return 0
        net_families = getattr(args, "families", None)
        report = run_net(
            scenario=args.scenario or "drifting-wearables",
            n_nodes=args.nodes,
            duration_s=net_duration, protocol=args.protocol,
            workers=args.workers,
            seed=args.seed,
            suite_seed=getattr(args, "suite_seed", None),
            suite_count=getattr(args, "suite_count", None),
            families=tuple(net_families) if net_families else None,
            policy=getattr(args, "policy", None),
            # ``all`` keeps each node's inline simulation; ``net``
            # dedupes app compute through the shared cache.
            compute="exact" if experiment == "net" else None,
            compute_cache=getattr(args, "compute_cache", None))
        if getattr(args, "json", None) is not None:
            write_net_json(report, args.json)
        sections.append(render_net(report))
    print("\n\n".join(sections))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the experiment, optionally emit metrics.

    Without ``--metrics`` no collector is activated, so the run pays
    nothing for instrumentation.  With it, the whole experiment runs
    under one :func:`repro.obs.collecting` registry; the metrics table
    is printed after the report and, when a PATH was given, the
    ``repro-metrics/1`` artifact is written there.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    metrics = getattr(args, "metrics", None)
    try:
        if metrics is None:
            return _dispatch(parser, args)
        with obs.collecting() as registry:
            status = _dispatch(parser, args)
    except (ValueError, OSError) as exc:
        # Usage errors — malformed tokens, unknown presets/policies,
        # unreadable artifact paths — are the operator's problem, not
        # a crash: one line on stderr and the argparse exit code.
        message = str(exc).splitlines()[0] if str(exc) else \
            type(exc).__name__
        print(f"{parser.prog}: error: {message}", file=sys.stderr)
        return 2
    print()
    print(obs.render_metrics(registry))
    if metrics:
        obs.write_metrics_json(registry, metrics,
                               experiment=args.experiment)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
