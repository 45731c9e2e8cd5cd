"""Ablation studies ABL-1..4.

The paper attributes its gains to specific mechanisms; these ablations
isolate each one:

* **ABL-1 broadcast**: multi-core 3L-MF with and without instruction
  broadcasting (the crossbar modification of Sec. IV-A) — isolates the
  lock-step dividend.
* **ABL-2 VFS**: RP-CLASS at 0 % pathology, multi-core at the scaled
  voltage vs. pinned at the baseline's voltage — isolates the
  "17 % savings ... due to voltage-frequency scaling" of Sec. V-C.
* **ABL-3 sleep**: the Fig. 6 strawman over all benchmarks —
  clock-gating (SLEEP) vs. active waiting.
* **ABL-4 lock-step recovery**: 3L-MF with the alignment the
  SINC/SDEC recovery sustains vs. alignment decayed to zero (no
  recovery after data-dependent branches, as without [8]).
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass

from ..apps import three_lead_mf
from ..apps.phases import AppSpec
from ..power.energy import compute_power
from ..power.vfs import OperatingPoint
from ..sysc.engine import Mode, simulate
from .cli import add_paper_arguments, paper_duration
from .runconfig import DURATION_S, benchmark_cases, rp_case


@dataclass(frozen=True)
class AblationResult:
    """Outcome of one ablation.

    Attributes:
        name: ablation identifier (ABL-1..4).
        description: what was toggled.
        with_feature_uw: average power with the mechanism enabled.
        without_feature_uw: average power with it disabled.
    """

    name: str
    description: str
    with_feature_uw: float
    without_feature_uw: float

    @property
    def penalty_fraction(self) -> float:
        """Relative power increase when the mechanism is removed."""
        if self.with_feature_uw == 0:
            return 0.0
        return (self.without_feature_uw - self.with_feature_uw) \
            / self.with_feature_uw


def _without_alignment(app: AppSpec) -> AppSpec:
    """Copy of an application with lock-step alignment zeroed."""
    phases = [dataclasses.replace(phase, lockstep_alignment=0.0)
              for phase in app.phases]
    clone = AppSpec(name=app.name, fs=app.fs, phases=phases,
                    channels=list(app.channels),
                    runtime_words=app.runtime_words,
                    beat_span_samples=app.beat_span_samples,
                    description=app.description)
    return clone


def ablate_broadcast(duration_s: float = DURATION_S) -> AblationResult:
    """ABL-1: instruction broadcast on 3L-MF (on vs. off)."""
    app = three_lead_mf()
    schedule: list = []
    with_bcast = simulate(app, Mode.MULTI_CORE, schedule,
                          duration_s=duration_s)
    without = simulate(_without_alignment(app), Mode.MULTI_CORE, schedule,
                       duration_s=duration_s)
    return AblationResult(
        name="ABL-1",
        description="instruction broadcasting (3L-MF, multi-core)",
        with_feature_uw=with_bcast.power.total_uw,
        without_feature_uw=without.power.total_uw)


def ablate_vfs(duration_s: float = DURATION_S) -> AblationResult:
    """ABL-2: voltage scaling on RP-CLASS at 0 % pathology."""
    case = rp_case(0.0, duration_s)
    scaled = simulate(case.app, Mode.MULTI_CORE, case.schedule,
                      duration_s=duration_s)
    # Re-price the same activity at the baseline's voltage (no VFS).
    pinned_point = OperatingPoint(
        frequency_mhz=scaled.operating_point.frequency_mhz, voltage=0.6)
    pinned = compute_power(scaled.activity, pinned_point, multicore=True)
    return AblationResult(
        name="ABL-2",
        description="voltage scaling (RP-CLASS, 0 % pathology, "
                    "0.5 V vs. 0.6 V)",
        with_feature_uw=scaled.power.total_uw,
        without_feature_uw=pinned.total_uw)


def ablate_sleep(duration_s: float = DURATION_S) -> list[AblationResult]:
    """ABL-3: SLEEP clock-gating vs. active waiting, all benchmarks."""
    results = []
    for case in benchmark_cases(duration_s):
        gated = simulate(case.app, Mode.MULTI_CORE, case.schedule,
                         duration_s=duration_s)
        spinning = simulate(case.app, Mode.MULTI_CORE_NO_SYNC,
                            case.schedule, duration_s=duration_s)
        results.append(AblationResult(
            name="ABL-3",
            description=f"clock-gating vs. active waiting "
                        f"({case.app.name})",
            with_feature_uw=gated.power.total_uw,
            without_feature_uw=spinning.power.total_uw))
    return results


def ablate_lockstep_recovery(duration_s: float = DURATION_S
                             ) -> AblationResult:
    """ABL-4: lock-step recovery after data-dependent branches.

    Without the SINC/SDEC recovery of [8], cores drift apart at the
    first data-dependent branch and stay apart: alignment collapses,
    and with it the broadcast dividend (but clock-gating remains).
    """
    app = three_lead_mf()
    schedule: list = []
    with_recovery = simulate(app, Mode.MULTI_CORE, schedule,
                             duration_s=duration_s)
    drifted = simulate(_without_alignment(app), Mode.MULTI_CORE, schedule,
                       duration_s=duration_s)
    return AblationResult(
        name="ABL-4",
        description="lock-step recovery across data-dependent "
                    "branches (3L-MF)",
        with_feature_uw=with_recovery.power.total_uw,
        without_feature_uw=drifted.power.total_uw)


def run_all_ablations(duration_s: float = DURATION_S
                      ) -> list[AblationResult]:
    """Run ABL-1..4 and return all results."""
    results = [ablate_broadcast(duration_s), ablate_vfs(duration_s)]
    results.extend(ablate_sleep(duration_s))
    results.append(ablate_lockstep_recovery(duration_s))
    return results


def render_ablations(results: list[AblationResult]) -> str:
    """Render the ablation outcomes."""
    lines = ["Ablations: power with / without each mechanism (uW)"]
    for result in results:
        lines.append(
            f"  {result.name}  {result.description:<52} "
            f"{result.with_feature_uw:7.1f} /{result.without_feature_uw:7.1f}"
            f"   (+{result.penalty_fraction * 100:.1f} % without)")
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_paper_arguments(parser)


def run_command(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> str:
    """``python -m repro.eval ablations``: the rendered report."""
    return render_ablations(run_all_ablations(paper_duration(args)))
