"""Quickstart: the paper's synchronization mechanism in five minutes.

Builds the Fig. 4 scenario from scratch: three producer cores condition
three input streams in parallel and hand the results to a consumer
core, synchronized exclusively with the paper's SINC / SDEC / SNOP /
SLEEP instructions.  The program is written in assembly, compiled with
the project tool-chain, and executed on the cycle-level multi-core
platform; afterwards the same application-level scenario is priced with
the power model.

Run with::

    python examples/quickstart.py
"""

from repro.hw import System
from repro.isa.assembler import assemble
from repro.power import ActivityVector, OperatingPoint, compute_power

SOURCE = """
; --- Fig. 4: three conditioning producers + one processing consumer ---
.equ SP_DATA, 0           ; synchronization point for the hand-off
.equ SLOTS, 0x900         ; shared slots written by the producers
.equ RESULT, 0x910        ; consumer output
.entry 0, producer
.entry 1, producer
.entry 2, producer
.entry 3, consumer

; The three producers share one code section (and therefore one IM
; bank): in lock-step, their instruction fetches merge into broadcasts.
.section conditioning, bank=0
producer:
    sinc SP_DATA           ; register as producer (Fig. 3-a), first of
                           ; all: the consumer's snop must find the
                           ; counter already raised, or it fires at once
    li   r5, 0x7F20        ; REG_CORE_ID
    lw   r6, 0(r5)         ; r6 = my core id
    ; "conditioning": fold the stream id through a toy filter
    addi r1, r6, 1
    slli r2, r1, 4
    add  r1, r1, r2        ; r1 = 17 * (id + 1)
    li   r4, SLOTS
    add  r4, r4, r6
    sw   r1, 0(r4)         ; publish the conditioned value
    sdec SP_DATA           ; data ready
    halt

.section processing, bank=1
consumer:
    nop                    ; let the producers register first
    snop SP_DATA           ; register interest in the data
    sleep                  ; clock-gate until the counter hits zero
    li   r4, SLOTS         ; woken: all three inputs are ready
    lw   r1, 0(r4)
    lw   r2, 1(r4)
    add  r1, r1, r2
    lw   r2, 2(r4)
    add  r1, r1, r2
    li   r4, RESULT
    sw   r1, 0(r4)
    halt
"""


def main() -> int:
    # ------------------------------------------------------------------
    # 1. Assemble and run on the cycle-level platform.
    # ------------------------------------------------------------------
    image = assemble(SOURCE, name="quickstart.s")
    print(f"assembled {image.code_words} instruction words, "
          f"{image.sync_instruction_count()} of them synchronization "
          f"instructions ({image.code_overhead() * 100:.1f} % overhead)")

    system = System.multicore(num_cores=8)
    system.load(image)
    system.run(10_000)
    assert system.all_halted

    result = system.dm_peek(0x910)
    expected = 17 * 1 + 17 * 2 + 17 * 3
    print(f"consumer computed {result} (expected {expected})")

    stats = system.synchronizer.stats
    activity = system.activity()
    slept = stats.gate_requests > 0
    print(f"cycles: {system.cycle}, "
          f"sync events fired: {stats.point_fires}, "
          f"consumer slept: {slept}")
    print(f"instruction broadcast among producers: "
          f"{activity.im_broadcast_fraction * 100:.1f} % of fetches "
          f"served by merged accesses")

    # ------------------------------------------------------------------
    # 2. Price a 60-second deployment with the power model.
    # ------------------------------------------------------------------
    point = OperatingPoint(frequency_mhz=1.0, voltage=0.5)
    cycles = 60 * 1e6
    vector = ActivityVector(
        cycles=cycles, core_active_cycles=3.2 * cycles,
        im_accesses=2.2 * cycles, dm_accesses=0.8 * cycles,
        interconnect_grants=4.0 * cycles, sync_ops=0.02 * cycles,
        cores_on=4, im_banks_on=2, dm_banks_on=16, platform_cores=8)
    report = compute_power(vector, point, multicore=True)
    print(f"\n60 s at 1 MHz / 0.5 V would average "
          f"{report.total_uw:.1f} uW:")
    for name, value in sorted(report.categories.items(),
                              key=lambda item: -item[1]):
        print(f"  {name:<13} {value:6.2f} uW")
    return 0 if result == expected and slept else 1


if __name__ == "__main__":
    raise SystemExit(main())
