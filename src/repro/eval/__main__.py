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

Every experiment is its own subcommand with its own flags, defined by
the module :data:`COMMANDS` names.  Only the selected subcommand's
module is imported, so a paper experiment never loads the fleet,
sweep or search layers, and ``--help`` loads none of them.

Usage errors — malformed tokens, unknown presets, conflicting flags,
unreadable spec files — exit 2 with a one-line message on stderr
(the argparse convention), never a traceback.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from .. import obs

#: Subcommand -> (its module in this package, one-line help), in help
#: order.  A module defines ``add_arguments(parser)``, which adds the
#: subcommand's flags, and ``run_command(args, parser)``, which runs
#: it and returns the report.
COMMANDS = {
    "table1": ("table1", "reproduce Table I"),
    "fig6": ("fig6", "reproduce Figure 6"),
    "fig7": ("fig7", "reproduce Figure 7"),
    "ablations": ("ablations", "run the mechanism ablations"),
    "all": ("allexp", "run every experiment"),
    "net": ("netexp", "run the fleet network experiment"),
    "sweep": ("sweepexp", "run a declarative sweep campaign (cached)"),
    "gen": ("genexp", "explore generated synthetic workloads"),
    "cover": ("coverexp", "run the coverage-driven workload fuzz loop"),
    "search": ("searchexp", "search generated apps for better placements"),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser, with flags only on the subcommand ``argv`` selects.

    The top-level parser has no option but ``-h``, so the first
    argument that is not an option names the subcommand.
    """
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Reproduce the paper's tables and figures, "
                    "or run declarative sweeps.")
    commands = parser.add_subparsers(dest="experiment", required=True,
                                     metavar="experiment")
    for name, (module_name, text) in COMMANDS.items():
        sub = commands.add_parser(name, help=text)
        if name == chosen:
            module = importlib.import_module(f".{module_name}", __package__)
            module.add_arguments(sub)
            sub.set_defaults(run_command=module.run_command)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the experiment, optionally emit metrics.

    Without ``--metrics`` no collector is activated, so the run pays
    nothing for instrumentation.  With it, the whole experiment runs
    under one :func:`repro.obs.collecting` registry; the metrics table
    is printed after the report and, when a PATH was given, the
    ``repro-metrics/1`` artifact is written there.
    """
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    args = parser.parse_args(argv)
    try:
        if args.metrics is None:
            print(args.run_command(args, parser))
            return 0
        with obs.collecting() as registry:
            print(args.run_command(args, parser))
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
    if args.metrics:
        obs.write_metrics_json(registry, args.metrics,
                               experiment=args.experiment)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
