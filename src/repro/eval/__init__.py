"""Experiment drivers: the paper's Table I, Fig. 6, Fig. 7 and ablations.

Importing the package loads the paper part only, the behavioural model
it runs on and nothing above it.  The other experiments import their
layers on use, from their own modules: :mod:`~repro.eval.netexp`
(fleets), :mod:`~repro.eval.sweepexp`, :mod:`~repro.eval.genexp`,
:mod:`~repro.eval.coverexp` and :mod:`~repro.eval.searchexp`.
"""

from .ablations import (
    ablate_broadcast,
    ablate_lockstep_recovery,
    ablate_sleep,
    ablate_vfs,
    render_ablations,
    run_all_ablations,
)
from .fig6 import render_fig6, run_fig6, run_group
from .fig7 import render_fig7, run_fig7
from .runconfig import DURATION_S, FIG7_RATIOS, benchmark_cases, rp_case
from .table1 import PAPER_TABLE1, render_table1, run_case, run_table1

__all__ = [
    "DURATION_S",
    "FIG7_RATIOS",
    "PAPER_TABLE1",
    "ablate_broadcast",
    "ablate_lockstep_recovery",
    "ablate_sleep",
    "ablate_vfs",
    "benchmark_cases",
    "render_ablations",
    "render_fig6",
    "render_fig7",
    "render_table1",
    "rp_case",
    "run_all_ablations",
    "run_case",
    "run_fig6",
    "run_fig7",
    "run_group",
    "run_table1",
]
