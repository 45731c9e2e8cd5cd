"""``python -m repro.eval all``: every paper experiment, then a fleet.

The fleet simulates each node inline (``compute=None``), where ``net``
dedupes app compute through the shared cache.
"""

from __future__ import annotations

import argparse

from . import ablations, fig6, fig7, table1
from .cli import add_paper_arguments
from .netexp import NET_DURATION_S, add_fleet_arguments, render_net, run_net


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_paper_arguments(parser)
    add_fleet_arguments(parser)


def run_command(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> str:
    """Table I, Fig. 6, Fig. 7, the ablations and the fleet report."""
    sections = [module.run_command(args, parser)
                for module in (table1, fig6, fig7, ablations)]
    report = run_net(
        scenario=args.scenario or "drifting-wearables",
        n_nodes=args.nodes,
        duration_s=NET_DURATION_S if args.duration is None
        else args.duration,
        protocol=args.protocol, workers=args.workers, seed=args.seed)
    sections.append(render_net(report))
    return "\n\n".join(sections)
