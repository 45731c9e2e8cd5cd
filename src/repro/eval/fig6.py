"""EXP-F6: reproduce Figure 6 — power decomposition per configuration.

For each benchmark, three bars: the single-core baseline (SC), the
multi-core system *without* the proposed synchronization (active
waiting, no broadcast — "(2) MC (no synch)"), and the multi-core system
with it.  Each bar decomposes into the component categories of the
power model (clock tree, leakage, interconnect, synchronizer,
cores & logic, data memory, instruction memory).

The paper's qualitative finding (Sec. V-B) is asserted by tests: the
no-synchronization multi-core is *lower / comparable / higher* than the
single-core baseline for 3L-MF / 3L-MMD / RP-CLASS respectively, while
the synchronized multi-core wins everywhere.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from ..power.energy import CATEGORIES, PowerReport
from ..sysc.engine import Mode, simulate
from .cli import add_paper_arguments, paper_duration
from .runconfig import BenchmarkCase, DURATION_S, benchmark_cases


@dataclass
class Fig6Group:
    """The three bars of one benchmark in Figure 6."""

    benchmark: str
    single: PowerReport
    multi_no_sync: PowerReport
    multi_sync: PowerReport

    @property
    def no_sync_vs_single(self) -> float:
        """(MC-no-sync - SC) / SC; sign gives Fig. 6's lower/higher."""
        return (self.multi_no_sync.total_uw - self.single.total_uw) \
            / self.single.total_uw


def run_group(case: BenchmarkCase,
              duration_s: float = DURATION_S) -> Fig6Group:
    """Simulate the three Fig. 6 configurations of one benchmark."""
    single = simulate(case.app, Mode.SINGLE_CORE, case.schedule,
                      duration_s=duration_s)
    no_sync = simulate(case.app, Mode.MULTI_CORE_NO_SYNC, case.schedule,
                       duration_s=duration_s)
    with_sync = simulate(case.app, Mode.MULTI_CORE, case.schedule,
                         duration_s=duration_s)
    return Fig6Group(
        benchmark=case.app.name,
        single=single.power,
        multi_no_sync=no_sync.power,
        multi_sync=with_sync.power,
    )


def run_fig6(duration_s: float = DURATION_S) -> list[Fig6Group]:
    """Run the full Figure 6 (three benchmarks x three bars)."""
    return [run_group(case, duration_s)
            for case in benchmark_cases(duration_s)]


def render_fig6(groups: list[Fig6Group]) -> str:
    """Render Figure 6 as stacked numeric columns per configuration."""
    lines = ["Figure 6: power decomposition (uW)"]
    for group in groups:
        lines.append(f"\n== {group.benchmark}")
        lines.append(
            "  component       " + "SC".rjust(9)
            + "MC(no sync)".rjust(13) + "MC(sync)".rjust(10))
        for name in CATEGORIES:
            lines.append(
                f"  {name:<15}"
                + f"{group.single.categories.get(name, 0.0):9.2f}"
                + f"{group.multi_no_sync.categories.get(name, 0.0):13.2f}"
                + f"{group.multi_sync.categories.get(name, 0.0):10.2f}")
        lines.append(
            "  total          "
            + f"{group.single.total_uw:9.2f}"
            + f"{group.multi_no_sync.total_uw:13.2f}"
            + f"{group.multi_sync.total_uw:10.2f}")
        sign = group.no_sync_vs_single
        verdict = "lower" if sign < -0.02 else \
            "higher" if sign > 0.02 else "comparable"
        lines.append(f"  MC without sync is {verdict} than SC "
                     f"({sign * 100:+.1f} %)")
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_paper_arguments(parser)


def run_command(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> str:
    """``python -m repro.eval fig6``: the rendered report."""
    return render_fig6(run_fig6(paper_duration(args)))
