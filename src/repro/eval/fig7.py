"""EXP-F7: reproduce Figure 7 — RP-CLASS vs. pathological-beat ratio.

"Figure 7 shows the energy consumption of the baseline and the target
architectures and the percentage reduction while executing the
RP-CLASS applications with different inputs, varying the amount of
pathological heartbeats.  For all the tests the abnormal heartbeats
have been distributed uniformly." (Sec. V-C)

Both systems are re-sized per ratio (minimum clock, then minimum
voltage); the single-core baseline's requirement crosses a voltage step
as the on-demand delineation chain activates more often, while the
multi-core system stays at the platform floor (1 MHz / 0.5 V) — the
combination of VFS and chain broadcasting grows the reduction with the
ratio, the paper's "synergies between VFS and broadcasting".
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from ..sysc.engine import Mode, SimulationResult, simulate
from .cli import add_paper_arguments, paper_duration
from .runconfig import DURATION_S, FIG7_RATIOS, rp_case


@dataclass
class Fig7Point:
    """One x-position of Figure 7.

    Attributes:
        ratio: pathological-beat fraction of the input.
        single: single-core simulation.
        multi: multi-core simulation.
    """

    ratio: float
    single: SimulationResult
    multi: SimulationResult

    @property
    def sc_power_uw(self) -> float:
        """Single-core average power (left axis)."""
        return self.single.power.total_uw

    @property
    def mc_power_uw(self) -> float:
        """Multi-core average power (left axis)."""
        return self.multi.power.total_uw

    @property
    def reduction(self) -> float:
        """Fractional reduction (right axis)."""
        return self.multi.power.saving_vs(self.single.power)


def run_fig7(ratios: tuple[float, ...] = FIG7_RATIOS,
             duration_s: float = DURATION_S) -> list[Fig7Point]:
    """Sweep the pathological ratio and simulate both systems."""
    points = []
    for ratio in ratios:
        case = rp_case(ratio, duration_s)
        single = simulate(case.app, Mode.SINGLE_CORE, case.schedule,
                          duration_s=duration_s)
        multi = simulate(case.app, Mode.MULTI_CORE, case.schedule,
                         duration_s=duration_s)
        points.append(Fig7Point(ratio=ratio, single=single, multi=multi))
    return points


def render_fig7(points: list[Fig7Point]) -> str:
    """Render Figure 7 as a table of the two curves + reduction."""
    lines = [
        "Figure 7: RP-CLASS power vs. proportion of abnormal heartbeats",
        "  ratio    SC (uW)   SC f/V         MC (uW)   reduction",
    ]
    for point in points:
        sc_op = point.single.operating_point
        lines.append(
            f"  {point.ratio * 100:4.0f} %"
            f"{point.sc_power_uw:10.1f}"
            f"   {sc_op.frequency_mhz:4.2f} MHz/{sc_op.voltage:.2f} V"
            f"{point.mc_power_uw:10.1f}"
            f"{point.reduction * 100:10.1f} %")
    lines.append("Paper: 17 % reduction at 0 %, growing to ~38 % "
                 "in the best case.")
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_paper_arguments(parser)


def run_command(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> str:
    """``python -m repro.eval fig7``: the rendered report."""
    return render_fig7(run_fig7(duration_s=paper_duration(args)))
