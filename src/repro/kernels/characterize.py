"""Characterisation runs on the cycle-level simulator.

Mirrors the paper's RTL-characterisation step (Sec. IV-C): small
kernels execute on the cycle-accurate platform and yield the per-op
costs and lock-step behaviour the system-level model is annotated
with.  The headline outputs are:

* cycles per window element of the morphological inner loop (used to
  sanity-check the calibrated ``MF_CYCLES`` budget);
* the **measured instruction-broadcast fraction** of replicated cores
  with and without the SINC/SDEC lock-step recovery — the empirical
  basis of the ``lockstep_alignment`` constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.system import SimulationError, System
from ..isa.assembler import assemble
from .sources import RESULT_BASE, barrier_pipeline_kernel, window_min_kernel

#: Safety bound for kernel runs (they halt long before this).
_MAX_CYCLES = 2_000_000


def not_halted(system: System, kernel: str) -> str | None:
    """What did not halt, as an error message naming the kernel, the
    cycle and the cores still running; None when every core halted."""
    running = [str(core.core_id) for core in system.cores if not core.halted]
    if not running:
        return None
    return (f"{kernel} kernel did not halt by cycle {system.cycle}: "
            f"cores {', '.join(running)} not halted")


def _run_to_halt(system: System, kernel: str) -> None:
    """Run ``system``; raise naming the cores still running if it does
    not halt within :data:`_MAX_CYCLES`."""
    system.run(_MAX_CYCLES)
    message = not_halted(system, kernel)
    if message is not None:
        raise SimulationError(message)


@dataclass(frozen=True)
class WindowMinReport:
    """Characterisation of the window-minimum kernel.

    Attributes:
        cores: replicas that ran.
        window: structuring-element width.
        outputs: output samples per replica.
        cycles: total platform cycles until completion.
        cycles_per_element: core cycles per processed window element.
        im_broadcast_fraction: merged fraction of instruction fetches.
        alignment: broadcast normalised to the perfect-lock-step bound
            ``(cores - 1) / cores`` — directly comparable to the
            ``lockstep_alignment`` constants of the benchmarks.
        sync_runtime_overhead: sync instructions / executed
            instructions.
        results: final per-core window minima (functional output).
    """

    cores: int
    window: int
    outputs: int
    cycles: int
    cycles_per_element: float
    im_broadcast_fraction: float
    alignment: float
    sync_runtime_overhead: float
    results: tuple[int, ...]


def characterize_window_min(cores: int = 3, window: int = 8,
                            outputs: int = 64,
                            with_sync: bool = True) -> WindowMinReport:
    """Run the window-minimum kernel and extract its characterisation."""
    source = window_min_kernel(cores=cores, window=window,
                               outputs=outputs, with_sync=with_sync)
    system = System.multicore(num_cores=8)
    system.load(assemble(source))
    _run_to_halt(system, "window-min")
    activity = system.activity()
    elements = cores * outputs * (window - 1)
    busy = sum(core.stats.instructions for core in system.cores)
    merged = activity.im_broadcast_fraction
    bound = (cores - 1) / cores if cores > 1 else 1.0
    return WindowMinReport(
        cores=cores, window=window, outputs=outputs,
        cycles=system.cycle,
        cycles_per_element=busy / elements,
        im_broadcast_fraction=merged,
        alignment=merged / bound if bound else 0.0,
        sync_runtime_overhead=activity.sync_instructions
        / activity.instructions,
        results=tuple(system.dm_peek(RESULT_BASE + core)
                      for core in range(cores)),
    )


@dataclass(frozen=True)
class BarrierPipelineReport:
    """Outcome of the multi-round producer-consumer pipeline.

    Attributes:
        producers: producing cores.
        rounds: pipeline rounds executed.
        cycles: total platform cycles.
        consumer_sum: accumulated consumer output.
        expected_sum: reference value.
        sleeps: SLEEP instructions executed (gating really happened).
        point_fires: synchronization events generated.
    """

    producers: int
    rounds: int
    cycles: int
    consumer_sum: int
    expected_sum: int
    sleeps: int
    point_fires: int


def characterize_barrier_pipeline(producers: int = 3, rounds: int = 8
                                  ) -> BarrierPipelineReport:
    """Run the barrier pipeline kernel and check its functional output."""
    system = System.multicore(num_cores=8)
    system.load(assemble(barrier_pipeline_kernel(producers=producers,
                                                 rounds=rounds)))
    _run_to_halt(system, "barrier pipeline")
    expected = sum(4 * core + r
                   for r in range(1, rounds + 1)
                   for core in range(producers)) & 0xFFFF
    stats = system.synchronizer.stats
    return BarrierPipelineReport(
        producers=producers, rounds=rounds, cycles=system.cycle,
        consumer_sum=system.dm_peek(RESULT_BASE),
        expected_sum=expected,
        sleeps=stats.op_counts["sleep"],
        point_fires=stats.point_fires,
    )
