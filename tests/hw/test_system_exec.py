"""Integration tests: assembled programs running on the platform."""

import pytest

from repro.hw.system import SimulationError, System
from repro.isa.assembler import assemble
from repro.isa.layout import REG_ADC_DATA0, REG_CORE_ID, REG_INT_SUBSCRIBE


def _run_single(source, max_cycles=5000, dm_banks_on=None, adc=None,
                adc_period=None):
    system = System.singlecore()
    image = assemble(source)
    system.load(image, dm_banks_on=dm_banks_on)
    if adc is not None:
        system.attach_adc(adc, adc_period)
    system.run(max_cycles)
    assert system.all_halted, "program did not halt"
    return system


def test_arithmetic_program():
    system = _run_single("""
        .equ RESULT, 0x900
        .dmfootprint RESULT
        main:
            addi r1, zero, 21
            slli r2, r1, 1        ; 42
            li   r5, RESULT
            sw   r2, 0(r5)
            halt
    """)
    assert system.dm_peek(0x900) == 42


def test_loop_sums_one_to_ten():
    system = _run_single("""
        .equ RESULT, 0x900
        .dmfootprint RESULT
        main:
            addi r1, zero, 10
            addi r2, zero, 0
        loop:
            add  r2, r2, r1
            addi r1, r1, -1
            bnez r1, loop
            li   r5, RESULT
            sw   r2, 0(r5)
            halt
    """)
    assert system.dm_peek(0x900) == 55


def test_multiply_and_signed_ops():
    system = _run_single("""
        .equ RESULT, 0x900
        .dmfootprint RESULT
        main:
            addi r1, zero, -6
            addi r2, zero, 7
            mul  r3, r1, r2       ; -42
            neg  r3, r3           ; 42
            li   r5, RESULT
            sw   r3, 0(r5)
            halt
    """)
    assert system.dm_peek(0x900) == 42


def test_function_call_and_return():
    system = _run_single("""
        .equ RESULT, 0x900
        .dmfootprint RESULT
        main:
            addi r1, zero, 5
            call double
            li   r5, RESULT
            sw   r1, 0(r5)
            halt
        double:
            add  r1, r1, r1
            ret
    """)
    assert system.dm_peek(0x900) == 10


def test_memory_round_trip_through_dm():
    system = _run_single("""
        .equ BUF, 0x920
        .dmfootprint BUF + 2
        main:
            li   r5, BUF
            addi r1, zero, 0x5A
            sw   r1, 0(r5)
            lw   r2, 0(r5)
            addi r2, r2, 1
            sw   r2, 1(r5)
            halt
    """)
    assert system.dm_peek(0x920) == 0x5A
    assert system.dm_peek(0x921) == 0x5B


def test_dm_init_is_visible_to_program():
    system = _run_single("""
        .equ TABLE, 0x930
        .dm TABLE, 11, 22
        main:
            li  r5, TABLE
            lw  r1, 0(r5)
            lw  r2, 1(r5)
            add r3, r1, r2
            sw  r3, 2(r5)
            halt
    """)
    assert system.dm_peek(0x932) == 33


def test_core_id_register():
    system = _run_single(f"""
        .equ RESULT, 0x900
        .dmfootprint RESULT
        main:
            li  r5, {REG_CORE_ID}
            lw  r1, 0(r5)
            li  r6, RESULT
            sw  r1, 0(r6)
            halt
    """)
    assert system.dm_peek(0x900) == 0


def test_single_core_powers_off_unused_dm_banks():
    system = _run_single("""
        main: halt
    """)
    # Footprint is tiny -> only bank 0 stays on.
    assert system.dm.powered_banks == 1
    # IM: one bank used.
    assert system.im.powered_banks == 1


def test_adc_driven_consumer():
    source = f"""
        .equ RESULT, 0x900
        .dmfootprint RESULT
        main:
            addi r1, zero, 1          ; subscribe to ADC channel 0
            li   r5, {REG_INT_SUBSCRIBE}
            sw   r1, 0(r5)
            addi r2, zero, 3          ; samples to consume
            addi r3, zero, 0          ; accumulator
        wait:
            sleep
            li   r6, {REG_ADC_DATA0}
            lw   r4, 0(r6)
            add  r3, r3, r4
            addi r2, r2, -1
            bnez r2, wait
            li   r6, RESULT
            sw   r3, 0(r6)
            halt
    """
    system = _run_single(source, max_cycles=2000,
                         adc=[[5, 6, 7]], adc_period=50)
    assert system.dm_peek(0x900) == 18
    assert system.adc.total_overruns == 0
    # The core actually slept between samples.
    assert system.cores[0].stats.gated_cycles > 50


def test_fetch_from_uninitialised_im_raises():
    system = System.singlecore()
    image = assemble("main: nop")  # falls off the end
    image.im.pop(max(image.im))    # remove the only instruction? keep nop
    system.load(assemble("main: nop\n nop"))
    # nop twice then runs into uninitialised IM
    with pytest.raises(SimulationError, match="uninitialised IM"):
        system.run(10)


# ---------------------------------------------------------------------------
# Multi-core behaviour
# ---------------------------------------------------------------------------

_LOCKSTEP_TWIN = """
    .equ RESULT, 0x900
    .entry 0, main
    .entry 1, main
    main:
        li   r7, {REG_CORE_ID}
        lw   r6, 0(r7)            ; r6 = core id
        addi r1, zero, 20
        addi r2, zero, 0
    loop:
        add  r2, r2, r1
        addi r1, r1, -1
        bnez r1, loop
        li   r5, RESULT
        add  r5, r5, r6           ; distinct result slots
        sw   r2, 0(r5)
        halt
"""


def test_two_cores_in_lockstep_broadcast_fetches():
    system = System.multicore(num_cores=8)
    source = _LOCKSTEP_TWIN.replace("{REG_CORE_ID}", str(REG_CORE_ID))
    system.load(assemble(source))
    system.run(10_000)
    assert system.all_halted
    assert system.dm_peek(0x900) == 210
    assert system.dm_peek(0x901) == 210
    activity = system.activity()
    # Both cores execute identical code in lock-step: nearly half of all
    # fetch grants are served by broadcast.
    assert activity.im_broadcast_fraction > 0.45


def test_broadcast_disabled_halves_nothing():
    system = System.multicore(num_cores=8, broadcast=False)
    source = _LOCKSTEP_TWIN.replace("{REG_CORE_ID}", str(REG_CORE_ID))
    system.load(assemble(source))
    system.run(10_000)
    assert system.all_halted
    activity = system.activity()
    assert activity.im_broadcast_fraction == 0.0
    # Without merging, same-address fetches serialise -> conflicts.
    assert activity.im_xbar.conflicts > 0


def test_producer_consumer_through_sync_instructions():
    source = """
        .equ DATA, 0x900
        .equ SP, 0
        .entry 0, producer
        .entry 1, consumer

        .section prod, bank=0
        producer:
            sinc SP                 ; register as producer
            addi r1, zero, 30       ; ... compute ...
            addi r1, r1, 12
            li   r5, DATA
            sw   r1, 0(r5)          ; publish datum
            sdec SP                 ; data ready
            halt

        .section cons, bank=1
        consumer:
            nop                     ; let the producer SINC first
            snop SP                 ; register interest
            sleep                   ; gate until data ready
            li   r5, DATA
            lw   r2, 0(r5)
            sw   r2, 1(r5)
            halt
    """
    system = System.multicore(num_cores=8)
    system.load(assemble(source))
    system.run(10_000)
    assert system.all_halted
    assert system.dm_peek(0x901) == 42
    stats = system.synchronizer.stats
    assert stats.op_counts["sinc"] == 1
    assert stats.op_counts["sdec"] == 1
    assert stats.op_counts["snop"] == 1
    assert stats.point_fires >= 1


def test_dm_bank_conflicts_are_resolved_by_stalling():
    # Two cores hammer different addresses in the same DM bank.
    # Shared addresses interleave mod 16, so addresses 0x800 and 0x810
    # both live in bank 0.
    # The two loops sit in *different* IM banks (the paper's mapping
    # rule) so instruction fetches never conflict and the stores really
    # collide on the DM bank.
    source = """
        .entry 0, main0
        .entry 1, main1
        .section code0, bank=0
        main0:
            li   r5, 0x800
            addi r1, zero, 64
        loop0:
            sw   r1, 0(r5)
            addi r1, r1, -1
            bnez r1, loop0
            halt
        .section code1, bank=1
        main1:
            li   r5, 0x810
            addi r1, zero, 64
        loop1:
            sw   r1, 0(r5)
            addi r1, r1, -1
            bnez r1, loop1
            halt
    """
    system = System.multicore(num_cores=8)
    system.load(assemble(source))
    system.run(10_000)
    assert system.all_halted
    activity = system.activity()
    assert activity.dm_xbar.conflicts > 0
    # Both loops completed despite the conflicts.
    assert system.dm_peek(0x800) == 1
    assert system.dm_peek(0x810) == 1


def test_lockstep_region_recovers_after_divergent_branches():
    """Two cores diverge on data-dependent work, then re-align.

    Each core busy-loops a different number of iterations inside a
    SINC/SDEC-delimited region; after the region both must resume in
    the same cycle (lock-step), which we observe via broadcast on the
    common tail.
    """
    source = """
        .equ SP, 1
        .equ OUT, 0x940
        .entry 0, main
        .entry 1, main
        main:
            li   r7, 0x7F20        ; REG_CORE_ID
            lw   r6, 0(r7)
            sinc SP                ; enter data-dependent region
            addi r1, r6, 1         ; core 0: 1 iteration, core 1: 2
        spin:
            addi r1, r1, -1
            bnez r1, spin
            sdec SP                ; leave region
            sleep                  ; wait for the laggard
            li   r5, OUT
            add  r5, r5, r6
            sw   r6, 0(r5)
            halt
    """
    system = System.multicore(num_cores=8)
    system.load(assemble(source))
    system.run(10_000)
    assert system.all_halted
    assert system.dm_peek(0x940) == 0
    assert system.dm_peek(0x941) == 1
    assert system.synchronizer.stats.point_fires == 1
    # One core slept, the other fell through via the latch.
    assert system.synchronizer.stats.fall_through_sleeps == 1


def test_deadlock_detection():
    source = """
        main:
            sleep       ; nothing will ever wake us
            halt
    """
    system = System.singlecore()
    system.load(assemble(source))
    with pytest.raises(SimulationError, match="deadlock"):
        system.run(1000)


def test_activity_snapshot_consistency():
    system = _run_single("""
        main:
            addi r1, zero, 5
        loop:
            addi r1, r1, -1
            bnez r1, loop
            halt
    """)
    activity = system.activity()
    assert activity.instructions == system.cores[0].stats.instructions
    assert activity.cycles == system.cycle
    assert activity.active_cores == 1
    assert activity.im.reads == activity.im_xbar.accesses
