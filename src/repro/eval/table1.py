"""EXP-T1: reproduce Table I of the paper.

For each benchmark (3L-MF, 3L-MMD, RP-CLASS) the single-core baseline
and the multi-core system with the proposed synchronization are
simulated over 60 s of input; every row of the paper's Table I is
produced: active cores / IM banks / DM banks, IM and DM broadcast
percentages, minimum clock and voltage, code and run-time overheads,
average power and the resulting saving.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from ..sysc.engine import Mode, SimulationResult, simulate
from .cli import add_paper_arguments, paper_duration
from .runconfig import BenchmarkCase, DURATION_S, benchmark_cases

#: Paper values for EXPERIMENTS.md comparisons, keyed by benchmark.
PAPER_TABLE1 = {
    "3L-MF": {"sc_power": 53.6, "mc_power": 31.8, "saving": 0.407,
              "im_broadcast": 0.4036, "dm_broadcast": 0.0374,
              "sc_clock": 2.3, "mc_clock": 1.0,
              "sc_voltage": 0.6, "mc_voltage": 0.5,
              "code_overhead": 0.0257, "runtime_overhead": 0.0165,
              "active_cores": 3, "sc_im_banks": 1, "mc_im_banks": 1,
              "sc_dm_banks": 3, "mc_dm_banks": 16},
    "3L-MMD": {"sc_power": 79.7, "mc_power": 50.3, "saving": 0.369,
               "im_broadcast": 0.2344, "dm_broadcast": 0.0282,
               "sc_clock": 3.4, "mc_clock": 1.0,
               "sc_voltage": 0.6, "mc_voltage": 0.5,
               "code_overhead": 0.0092, "runtime_overhead": 0.0096,
               "active_cores": 5, "sc_im_banks": 3, "mc_im_banks": 4,
               "sc_dm_banks": 3, "mc_dm_banks": 16},
    "RP-CLASS": {"sc_power": 80.4, "mc_power": 56.9, "saving": 0.292,
                 "im_broadcast": 0.1030, "dm_broadcast": 0.0107,
                 "sc_clock": 3.3, "mc_clock": 1.0,
                 "sc_voltage": 0.6, "mc_voltage": 0.5,
                 "code_overhead": 0.0069, "runtime_overhead": 0.0060,
                 "active_cores": 6, "sc_im_banks": 4, "mc_im_banks": 6,
                 "sc_dm_banks": 11, "mc_dm_banks": 16},
}


@dataclass
class Table1Column:
    """One benchmark's column pair (SC and MC) of Table I."""

    benchmark: str
    single: SimulationResult
    multi: SimulationResult

    @property
    def saving(self) -> float:
        """Fractional power saving of MC over SC (Table I bottom row)."""
        return self.multi.power.saving_vs(self.single.power)

    def as_dict(self) -> dict[str, float]:
        """Rows of Table I as a flat mapping (fractions, MHz, V, µW)."""
        return {
            "active_cores": self.multi.mapping.active_cores,
            "sc_im_banks": len(self.single.mapping.im_banks_used),
            "mc_im_banks": len(self.multi.mapping.im_banks_used),
            "sc_dm_banks": self.single.mapping.dm_banks_active,
            "mc_dm_banks": self.multi.mapping.dm_banks_active,
            "im_broadcast": self.multi.im_broadcast_fraction,
            "dm_broadcast": self.multi.dm_broadcast_fraction,
            "sc_clock": self.single.operating_point.frequency_mhz,
            "mc_clock": self.multi.operating_point.frequency_mhz,
            "sc_voltage": self.single.operating_point.voltage,
            "mc_voltage": self.multi.operating_point.voltage,
            "code_overhead": self.multi.code_overhead,
            "runtime_overhead": self.multi.runtime_overhead,
            "sc_power": self.single.power.total_uw,
            "mc_power": self.multi.power.total_uw,
            "saving": self.saving,
        }


def run_case(case: BenchmarkCase,
             duration_s: float = DURATION_S) -> Table1Column:
    """Simulate one benchmark in both configurations."""
    single = simulate(case.app, Mode.SINGLE_CORE, case.schedule,
                      duration_s=duration_s)
    multi = simulate(case.app, Mode.MULTI_CORE, case.schedule,
                     duration_s=duration_s)
    return Table1Column(benchmark=case.app.name, single=single,
                        multi=multi)


def run_table1(duration_s: float = DURATION_S) -> list[Table1Column]:
    """Run all three benchmarks (the full Table I)."""
    return [run_case(case, duration_s) for case in benchmark_cases(
        duration_s)]


_TABLE1_ROWS: tuple[tuple[str, str, str], ...] = (
    # (row label, dict key or pair, format)
    ("Active Cores", "active_cores", "int"),
    ("Active IM banks", "sc_im_banks/mc_im_banks", "int"),
    ("Active DM banks", "sc_dm_banks/mc_dm_banks", "int"),
    ("IM Broadcast (%)", "im_broadcast", "pct"),
    ("DM Broadcast (%)", "dm_broadcast", "pct"),
    ("Min. Clock (MHz)", "sc_clock/mc_clock", "f1"),
    ("Min. Voltage (V)", "sc_voltage/mc_voltage", "f2"),
    ("Code Overhead (%)", "code_overhead", "pct"),
    ("Run-time Overhead (%)", "runtime_overhead", "pct"),
    ("Avg. Power (uW)", "sc_power/mc_power", "f1"),
    ("Saving (%)", "saving", "pct"),
)


def format_cell(value: float, kind: str) -> str:
    """One report cell: ``int``, ``pct`` (of a fraction), ``f1`` or ``f2``."""
    if kind == "int":
        return f"{int(round(value))}"
    if kind == "pct":
        return f"{value * 100:.2f}"
    if kind == "f1":
        return f"{value:.1f}"
    return f"{value:.2f}"


def render_table1(columns: list[Table1Column]) -> str:
    """Render Table I in the paper's layout (SC and MC per benchmark)."""
    header = ["Metric".ljust(24)]
    for column in columns:
        header.append(f"{column.benchmark} SC".rjust(12))
        header.append(f"{column.benchmark} MC".rjust(12))
    lines = ["  ".join(header), "-" * len("  ".join(header))]
    data = {column.benchmark: column.as_dict() for column in columns}
    for label, key, kind in _TABLE1_ROWS:
        row = [label.ljust(24)]
        for column in columns:
            values = data[column.benchmark]
            if "/" in key:
                sc_key, mc_key = key.split("/")
                row.append(format_cell(values[sc_key], kind).rjust(12))
                row.append(format_cell(values[mc_key], kind).rjust(12))
            else:
                shared = ("-", format_cell(values[key], kind))
                if key == "active_cores":
                    shared = ("1", format_cell(values[key], kind))
                row.append(shared[0].rjust(12))
                row.append(shared[1].rjust(12))
        lines.append("  ".join(row))
    lines.append("")
    lines.append("Paper Table I (MC power / saving): " + ", ".join(
        f"{name}: {vals['mc_power']:.1f} uW / "
        f"{vals['saving'] * 100:.1f}%"
        for name, vals in PAPER_TABLE1.items()))
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_paper_arguments(parser)


def run_command(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> str:
    """``python -m repro.eval table1``: the rendered report."""
    return render_table1(run_table1(paper_duration(args)))
