"""Argument helpers shared by the subcommands of ``python -m repro.eval``.

Each subcommand's module adds its own flags through these helpers
(see :data:`repro.eval.__main__.COMMANDS`), so the flag spellings,
types and help texts stay the same across subcommands.
"""

from __future__ import annotations

import argparse

from .runconfig import DURATION_S


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def add_duration(parser: argparse.ArgumentParser, default_hint: str) -> None:
    parser.add_argument(
        "--duration", type=positive_float, default=None,
        help=f"simulated seconds (default: {default_hint})")


def add_metrics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", nargs="?", const="", default=None, metavar="PATH",
        help="collect run metrics and print them after the report; "
             "with PATH, also write the repro-metrics/1 artifact "
             "there")


def add_paper_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of ``table1``, ``fig6``, ``fig7`` and ``ablations``."""
    add_duration(parser, f"the paper's {DURATION_S:g} s")
    add_metrics(parser)


def paper_duration(args: argparse.Namespace) -> float:
    """``--duration``, or the paper's 60 s."""
    return DURATION_S if args.duration is None else args.duration
