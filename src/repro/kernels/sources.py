"""Assembly kernels for cycle-level characterization.

The paper characterises architectural elements by running "small code
sections" under post-layout RTL simulation (Sec. IV-C).  These kernels
play that role on the cycle-level simulator: they are real machine-code
programs, built with the project assembler, whose measured behaviour
grounds the constants used by the system-level model:

* :func:`window_min_kernel` — the erosion/dilation inner loop of the
  morphological filter: a sliding-window minimum whose compare-update
  is a *data-dependent branch*.  Run on several cores over different
  data with SINC/SDEC regions, it measures how much instruction
  broadcast the lock-step recovery sustains (the ``lockstep_alignment``
  constants of :mod:`repro.apps.benchmarks`).
* :func:`mac_kernel` — the multiply-accumulate loop of the random
  projection, for cycles-per-MAC.
* :func:`barrier_pipeline_kernel` — a full producer-consumer round
  pipeline built from the paper's primitives only (two alternating
  sync points as a reusable barrier), validating multi-round operation
  of the protocol on real hardware semantics.

All kernels derive per-core data from the ``REG_CORE_ID`` register and
a small LCG, so replicated cores run identical code on distinct
streams — exactly the paper's SIMD-style setting.
"""

from __future__ import annotations

from ..isa.layout import REG_CORE_ID

#: Shared-memory base where kernels deposit per-core results.
RESULT_BASE = 0x900


def window_min_kernel(cores: int = 3, window: int = 8, outputs: int = 64,
                      with_sync: bool = True) -> str:
    """Sliding-window-minimum kernel (erosion inner loop).

    Args:
        cores: replicas running the kernel in parallel (<= 8).
        window: structuring-element width (>= 2).
        outputs: output samples each replica computes.
        with_sync: wrap each window in a SINC/SDEC lock-step region
            (the paper's recovery); without it, cores drift after the
            first data-dependent branch.

    Each core fills a private buffer from an LCG seeded with its core
    id, slides a ``window``-wide minimum over it, and stores the final
    minimum to ``RESULT_BASE + core_id``.
    """
    if not 1 <= cores <= 8:
        raise ValueError("cores must be in [1, 8]")
    if window < 2:
        raise ValueError("window must be >= 2")
    entries = "\n".join(f".entry {core}, main" for core in range(cores))
    region_enter = "sinc SP" if with_sync else "nop"
    region_leave = "sdec SP\n    sleep" if with_sync else "nop\n    nop"
    return f"""
; window-minimum characterisation kernel ({cores} cores, W={window})
.equ SP, 0
.equ PRIV, 0
.equ RESULT, {RESULT_BASE:#x}
.equ N, {outputs}
.equ W, {window}
{entries}

main:
    li   r5, {REG_CORE_ID:#x}
    lw   r6, 0(r5)          ; r6 = core id
    ; ---- fill private buffer with LCG(seed = 10*id + 3) ----
    slli r1, r6, 3
    add  r1, r1, r6
    add  r1, r1, r6
    addi r1, r1, 3          ; r1 = 10*id + 3
    li   r3, N + W
    addi r4, zero, PRIV
fill:
    li   r2, 25173
    mul  r1, r1, r2
    li   r2, 13849
    add  r1, r1, r2
    sw   r1, 0(r4)
    addi r4, r4, 1
    addi r3, r3, -1
    bnez r3, fill
    ; ---- sliding-window minimum ----
    addi r3, zero, 0        ; output index
outer:
    {region_enter}          ; enter data-dependent region
    addi r4, zero, PRIV
    add  r4, r4, r3
    lw   r1, 0(r4)          ; running minimum
    li   r2, W - 1
inner:
    addi r4, r4, 1
    lw   r5, 0(r4)
    bge  r5, r1, no_update  ; data-dependent branch
    mv   r1, r5             ; update running minimum...
    mv   r7, r4             ; ...and remember its position (argmin),
    xor  r5, r5, r5         ; as the real filter does - the update
                            ; path is longer than the skip path, so
                            ; cores genuinely drift apart here
no_update:
    addi r2, r2, -1
    bnez r2, inner
    {region_leave}          ; leave region; resume in lock-step
    addi r3, r3, 1
    li   r2, N
    blt  r3, r2, outer
    ; ---- publish final minimum ----
    li   r4, RESULT
    add  r4, r4, r6
    sw   r1, 0(r4)
    halt
"""


def mac_kernel(taps: int = 64) -> str:
    """Multiply-accumulate kernel (random-projection inner loop).

    One core computes a ``taps``-long dot product of two private
    vectors and stores the low word at ``RESULT_BASE``.
    """
    if taps < 1:
        raise ValueError("taps must be positive")
    return f"""
; MAC characterisation kernel ({taps} taps)
.equ A, 0
.equ B, {taps}
.equ RESULT, {RESULT_BASE:#x}
.equ N, {taps}
.dmfootprint RESULT

main:
    ; fill a[i] = i + 1, b[i] = 2*i + 1
    addi r1, zero, 0
initloop:
    addi r2, r1, 1
    addi r4, zero, A
    add  r4, r4, r1
    sw   r2, 0(r4)
    slli r2, r1, 1
    addi r2, r2, 1
    addi r4, zero, B
    add  r4, r4, r1
    sw   r2, 0(r4)
    addi r1, r1, 1
    li   r2, N
    blt  r1, r2, initloop
    ; dot product
    addi r1, zero, 0        ; index
    addi r3, zero, 0        ; accumulator
macloop:
    addi r4, zero, A
    add  r4, r4, r1
    lw   r2, 0(r4)
    addi r4, zero, B
    add  r4, r4, r1
    lw   r5, 0(r4)
    mul  r2, r2, r5
    add  r3, r3, r2
    addi r1, r1, 1
    li   r2, N
    blt  r1, r2, macloop
    li   r4, RESULT
    sw   r3, 0(r4)
    halt
"""


def barrier_pipeline_kernel(producers: int = 3, rounds: int = 8) -> str:
    """Multi-round producer-consumer pipeline with ISE-only barriers.

    ``producers`` cores each produce one value per round into a shared
    slot; core ``producers`` (the consumer) sums them.  Rounds are
    separated by a reusable two-point sense barrier built exclusively
    from the paper's SINC/SDEC/SLEEP instructions: every core
    pre-registers on the next epoch's point (``SINC``) before waiting
    on the current one (``SDEC`` + ``SLEEP``).

    The consumer's accumulated sum lands at ``RESULT_BASE``.
    """
    if not 1 <= producers <= 7:
        raise ValueError("producers must be in [1, 7]")
    total = producers + 1
    entries = "\n".join(f".entry {core}, main" for core in range(total))
    return f"""
; producer-consumer pipeline with sense barriers
.equ BAR0, 0
.equ BAR1, 1
.equ SLOTS, 0x940
.equ RESULT, {RESULT_BASE:#x}
.equ NPROD, {producers}
.equ ROUNDS, {rounds}
{entries}

main:
    li   r5, {REG_CORE_ID:#x}
    lw   r6, 0(r5)          ; core id
    addi r3, zero, ROUNDS   ; rounds left
    addi r2, zero, 0        ; r2 = epoch parity (0 -> BAR0 current)
    sinc BAR0               ; prime the first barrier epoch
    addi r1, zero, 0        ; consumer accumulator / producer value
round:
    li   r5, NPROD
    blt  r6, r5, produce
    ; ---------------- consumer ----------------
    ; wait for producers at barrier A
    call barrier
    ; sum the slots
    addi r1, zero, 0
    li   r4, SLOTS
    li   r5, NPROD
sumloop:
    lw   r7, 0(r4)
    add  r1, r1, r7
    addi r4, r4, 1
    addi r5, r5, -1
    bnez r5, sumloop
    li   r4, RESULT
    lw   r7, 0(r4)
    add  r7, r7, r1
    sw   r7, 0(r4)
    ; release producers at barrier B
    call barrier
    j    next
produce:
    ; ---------------- producer ----------------
    slli r1, r6, 2
    add  r1, r1, r3         ; value = 4*id + rounds_left
    li   r4, SLOTS
    add  r4, r4, r6
    sw   r1, 0(r4)
    call barrier            ; barrier A: data published
    call barrier            ; barrier B: consumer done reading
next:
    addi r3, r3, -1
    bnez r3, round
    halt

; ---- sense barrier: r2 holds the epoch parity (clobbers r5) ----
barrier:
    bnez r2, odd_epoch
    sinc BAR1               ; pre-register on the next epoch
    sdec BAR0               ; arrive at the current epoch
    sleep
    addi r2, zero, 1
    ret
odd_epoch:
    sinc BAR0
    sdec BAR1
    sleep
    addi r2, zero, 0
    ret
"""
