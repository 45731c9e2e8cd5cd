"""End-to-end streaming: ECG samples through the ADC into sync'd cores.

Exercises the full Fig. 2 stack together: the synthetic ECG feeds the
three-channel ADC; three cores (one per lead, sharing one code section)
subscribe to their data-ready interrupt lines, SLEEP between samples,
and accumulate a running maximum in their private memories; results
land in shared memory.  Everything — interrupt forwarding, clock
gating, the ATU private/shared split, broadcast on the common code —
must cooperate for the checksums to match numpy.
"""

import numpy as np

from repro.hw.system import System
from repro.isa.assembler import assemble
from repro.isa.layout import (
    REG_ADC_DATA0,
    REG_CORE_ID,
    REG_INT_SUBSCRIBE,
)
from repro.signals import cse_like_record

SAMPLES = 40


def _streaming_source() -> str:
    return f"""
    .equ RESULT, 0x900
    .equ NSAMP, {SAMPLES}
    .entry 0, main
    .entry 1, main
    .entry 2, main

main:
    li   r5, {REG_CORE_ID}
    lw   r6, 0(r5)           ; my lead index
    addi r1, zero, 1
    sll  r1, r1, r6          ; subscription mask = 1 << id
    li   r5, {REG_INT_SUBSCRIBE}
    sw   r1, 0(r5)
    li   r3, NSAMP           ; samples to consume
    addi r2, zero, 0         ; running maximum (unsigned)
wait:
    sleep                    ; gate until my channel raises data-ready
    li   r5, {REG_ADC_DATA0}
    add  r5, r5, r6          ; my channel's data register
    lw   r4, 0(r5)
    bgeu r2, r4, not_bigger  ; data-dependent branch
    mv   r2, r4
not_bigger:
    addi r3, r3, -1
    bnez r3, wait
    li   r5, RESULT
    add  r5, r5, r6
    sw   r2, 0(r5)
    halt
"""


def test_three_leads_streamed_through_adc():
    record = cse_like_record(duration_s=2.0, num_leads=3)
    streams = [np.abs(lead[:SAMPLES]).astype(int).tolist()
               for lead in record.leads]

    system = System.multicore(num_cores=8)
    system.load(assemble(_streaming_source()))
    # Sample period chosen so the cores easily keep up (no overruns).
    system.attach_adc(streams, period_cycles=120)
    system.run(120 * (SAMPLES + 4))

    assert system.all_halted
    assert system.adc.total_overruns == 0
    for lead_index, stream in enumerate(streams):
        assert system.dm_peek(0x900 + lead_index) == max(stream)


def test_cores_sleep_between_samples():
    record = cse_like_record(duration_s=2.0, num_leads=3)
    streams = [np.abs(lead[:SAMPLES]).astype(int).tolist()
               for lead in record.leads]
    system = System.multicore(num_cores=8)
    system.load(assemble(_streaming_source()))
    system.attach_adc(streams, period_cycles=150)
    system.run(150 * (SAMPLES + 4))
    assert system.all_halted
    for core in system.cores[:3]:
        # Gated for most of the run: the inner loop costs ~10 cycles
        # out of every 150-cycle sample period.
        assert core.stats.gated_cycles > 0.8 * core.stats.active_cycles


def test_identical_consumers_broadcast_fetches():
    """The three lead handlers share code: fetches merge while aligned."""
    record = cse_like_record(duration_s=2.0, num_leads=3)
    streams = [np.abs(lead[:SAMPLES]).astype(int).tolist()
               for lead in record.leads]
    system = System.multicore(num_cores=8)
    system.load(assemble(_streaming_source()))
    system.attach_adc(streams, period_cycles=120)
    system.run(120 * (SAMPLES + 4))
    activity = system.activity()
    # All three wake on the same cycle (simultaneous sampling) and run
    # the same handler; data-dependent branches cost some alignment.
    assert activity.im_broadcast_fraction > 0.3
