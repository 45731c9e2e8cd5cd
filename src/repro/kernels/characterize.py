"""Characterisation runs on the cycle-level simulator.

Mirrors the paper's RTL-characterisation step (Sec. IV-C): small
kernels execute on the cycle-accurate platform and yield the per-op
costs and lock-step behaviour the system-level model is annotated
with.  The headline outputs are:

* cycles per window element of the morphological inner loop (used to
  sanity-check the calibrated ``MF_CYCLES`` budget);
* cycles per multiply-accumulate (the RP projection cost);
* the **measured instruction-broadcast fraction** of replicated cores
  with and without the SINC/SDEC lock-step recovery — the empirical
  basis of the ``lockstep_alignment`` constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.system import System
from ..isa.assembler import assemble
from .sources import (
    RESULT_BASE,
    barrier_pipeline_kernel,
    mac_kernel,
    window_min_kernel,
)

#: Safety bound for kernel runs (they halt long before this).
_MAX_CYCLES = 2_000_000


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
    system.run(_MAX_CYCLES)
    if not system.all_halted:
        raise RuntimeError("window-min kernel did not halt")
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
class MacReport:
    """Characterisation of the MAC kernel.

    Attributes:
        taps: dot-product length.
        cycles_per_mac: core cycles per multiply-accumulate.
        result: functional dot-product output (low 16 bits).
        expected: reference value computed in Python.
    """

    taps: int
    cycles_per_mac: float
    result: int
    expected: int


def characterize_mac(taps: int = 64) -> MacReport:
    """Run the MAC kernel and extract cycles-per-MAC."""
    system = System.singlecore()
    system.load(assemble(mac_kernel(taps=taps)))
    system.run(_MAX_CYCLES)
    if not system.all_halted:
        raise RuntimeError("MAC kernel did not halt")
    expected = sum((i + 1) * (2 * i + 1) for i in range(taps)) & 0xFFFF
    # Subtract the init loop (~9 instructions per tap) from the core's
    # active cycles to isolate the MAC loop cost.
    active = system.cores[0].stats.active_cycles
    init_cost = 11 * taps
    return MacReport(
        taps=taps,
        cycles_per_mac=max(0.0, active - init_cost) / taps,
        result=system.dm_peek(RESULT_BASE),
        expected=expected,
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
    system.run(_MAX_CYCLES)
    if not system.all_halted:
        raise RuntimeError("barrier pipeline did not halt")
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
