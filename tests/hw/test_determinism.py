"""Simulation determinism and reload behaviour."""

from repro.hw.system import System
from repro.isa.assembler import assemble

_PROGRAM = """
    .equ SP, 0
    .entry 0, main
    .entry 1, main
main:
    li   r5, 0x7F20
    lw   r6, 0(r5)
    sinc SP
    addi r1, r6, 3
spin:
    addi r1, r1, -1
    bnez r1, spin
    sdec SP
    sleep
    li   r5, 0x900
    add  r5, r5, r6
    sw   r6, 0(r5)
    halt
"""


def _run():
    system = System.multicore(num_cores=8)
    system.load(assemble(_PROGRAM))
    system.run(5000)
    assert system.all_halted
    return system


def test_two_runs_are_bit_identical():
    a, b = _run(), _run()
    assert a.cycle == b.cycle
    assert a.activity().im_xbar.broadcast_merged == \
        b.activity().im_xbar.broadcast_merged
    assert a.activity().dm.accesses == b.activity().dm.accesses
    for core_a, core_b in zip(a.cores, b.cores):
        assert core_a.stats.instructions == core_b.stats.instructions
        assert core_a.stats.gated_cycles == core_b.stats.gated_cycles


def test_reload_resets_state_and_counters():
    system = _run()
    first_cycle_count = system.cycle
    system.load(assemble(_PROGRAM))  # reload the same image
    assert system.synchronizer.stats.total_sync_instructions == 0
    assert system.activity().im.accesses == 0
    system.run(5000)
    assert system.all_halted
    assert system.dm_peek(0x900) == 0
    assert system.dm_peek(0x901) == 1
    assert system.cycle - first_cycle_count > 0
