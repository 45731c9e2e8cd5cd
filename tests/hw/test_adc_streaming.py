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
from repro.kernels import running_max_kernel
from repro.signals import cse_like_record

SAMPLES = 40


def _streaming_source() -> str:
    return running_max_kernel(samples=SAMPLES)


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
