"""Cycle-level model of the 16-bit RISC computing core.

Sec. IV-A: "Each computing core consists of a 16-bits RISC architecture
featuring a three-stages pipeline with forwarding paths.  Their
instruction set has been extended to support the proposed
synchronization technique."

The model is *cycle-approximate*: instructions execute atomically but
are charged their pipeline timing — one cycle for ALU/memory (the
crossbar is combinational), two for multiplies, plus one flush cycle
for taken branches and jumps.  Full forwarding means no data hazards.
Memory-bank conflicts surface as stalls imposed by the platform, not by
this class.

The platform binds every instruction word once, at load (:func:`bind`),
and calls the bound instruction on each core that fetches it; the call
returns the :class:`Effect` the platform must arbitrate or forward to
the synchronizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import add, and_, eq, ge, lt, ne, or_, sub, xor

from ..core.synchronizer import SyncOp
from ..isa.encoding import Instruction
from ..isa.spec import Op


class EffectKind(enum.Enum):
    """What an executed instruction asks of the platform."""

    NONE = "none"
    LOAD = "load"
    STORE = "store"
    SYNC = "sync"
    SLEEP = "sleep"
    HALT = "halt"


@dataclass(slots=True)
class Effect:
    """Platform-visible side effect of one instruction.

    Attributes:
        kind: effect category.
        address: logical DM address (LOAD/STORE).
        value: store data (STORE).
        rd: destination register (LOAD).
        sync_op: which sync instruction was issued (SYNC).
        sync_point: sync-point literal (SYNC).
    """

    kind: EffectKind
    address: int = 0
    value: int = 0
    rd: int = 0
    sync_op: SyncOp | None = None
    sync_point: int = 0


#: The effects that carry no operands, shared by every execution.
_SLEEP = Effect(EffectKind.SLEEP)
_HALT = Effect(EffectKind.HALT)


@dataclass
class CoreStats:
    """Per-core activity counters (inputs to the power model).

    Attributes:
        instructions: instructions retired.
        active_cycles: cycles with the clock running (issue + stall +
            multi-cycle busy).
        gated_cycles: cycles spent clock-gated by the synchronizer.
        halted_cycles: cycles after ``halt``.
        fetch_stalls: cycles lost to IM bank conflicts.
        mem_stalls: cycles lost to DM bank conflicts.
        busy_cycles: extra cycles of multi-cycle instructions and
            branch flushes.
        sync_issued: synchronization-ISE instructions retired
            (including ``sleep``).
        loads: data-memory loads retired.
        stores: data-memory stores retired.
        taken_branches: taken branches and jumps.
    """

    instructions: int = 0
    active_cycles: int = 0
    gated_cycles: int = 0
    halted_cycles: int = 0
    fetch_stalls: int = 0
    mem_stalls: int = 0
    busy_cycles: int = 0
    sync_issued: int = 0
    loads: int = 0
    stores: int = 0
    taken_branches: int = 0


# Instruction semantics, bound once per IM word: a binder turns a word
# and its address into the call ``op(core)`` that moves ``pc`` on,
# counts the instruction, applies the semantics and returns the
# platform effect, or None.  Registers hold 16-bit words and r0 is
# never written, so it reads as zero; flipping bit 15 orders words as
# signed integers.


def _s16(word: int) -> int:
    """The signed value of a 16-bit word."""
    return (word ^ 0x8000) - 0x8000


def _fixed(effect_of, sync_issued: int = 1):
    """An instruction whose effect, if any, is known when it is bound."""
    def bind(instr: Instruction, address: int):
        effect, next_pc = effect_of(instr), (address + 1) & 0x7FFF

        def op(core: "RiscCore") -> Effect | None:
            core.pc = next_pc
            stats = core.stats
            stats.instructions += 1
            stats.sync_issued += sync_issued
            return effect
        return op
    return bind


_nop = _fixed(lambda instr: None, 0)


def _alu(fn, use_imm: bool = False):
    """``rd = fn(ra, rb)``, or ``fn(ra, imm)``, wrapped to 16 bits."""
    def bind(instr: Instruction, address: int):
        rd, ra, rb, imm = instr.rd, instr.ra, instr.rb, instr.imm
        next_pc = (address + 1) & 0x7FFF
        if not rd:
            return _nop(instr, address)

        def op(core: "RiscCore") -> None:
            core.pc = next_pc
            core.stats.instructions += 1
            regs = core.regs
            regs[rd] = fn(regs[ra], imm if use_imm else regs[rb]) & 0xFFFF
        return op
    return bind


def _multiply(shift: int):
    """``mul``/``mulh``: bits ``shift``.. of the signed product, 2 cycles."""
    product = _alu(lambda a, b: (_s16(a) * _s16(b)) >> shift)

    def bind(instr: Instruction, address: int):
        write = product(instr, address)

        def op(core: "RiscCore") -> None:
            write(core)
            core.busy_cycles_left += 1
        return op
    return bind


def _branch(taken):
    """Conditional branch; a taken one costs a flush cycle."""
    def bind(instr: Instruction, address: int):
        ra, rb, next_pc = instr.ra, instr.rb, (address + 1) & 0x7FFF
        target = (address + 1 + instr.imm) & 0x7FFF

        def op(core: "RiscCore") -> None:
            stats, regs = core.stats, core.regs
            stats.instructions += 1
            if taken(regs[ra], regs[rb]):
                core.pc = target
                core.busy_cycles_left += 1
                stats.taken_branches += 1
            else:
                core.pc = next_pc
        return op
    return bind


def _jump(indirect: bool):
    """``jal``/``jalr``: link ``address + 1`` (unwrapped), jump, flush."""
    def bind(instr: Instruction, address: int):
        rd, ra, imm = instr.rd, instr.ra, instr.imm

        def op(core: "RiscCore") -> None:
            stats, regs = core.stats, core.regs
            core.pc = ((regs[ra] if indirect else 0) + imm) & 0x7FFF
            if rd:
                regs[rd] = address + 1
            core.busy_cycles_left += 1
            stats.instructions += 1
            stats.taken_branches += 1
        return op
    return bind


def _memory(store: bool):
    """``lw``/``sw``: an access the platform must grant."""
    def bind(instr: Instruction, address: int):
        rd, ra, rb, imm = instr.rd, instr.ra, instr.rb, instr.imm
        next_pc = (address + 1) & 0x7FFF

        def op(core: "RiscCore") -> Effect:
            core.pc = next_pc
            stats, regs = core.stats, core.regs
            stats.instructions += 1
            if store:
                stats.stores += 1
                return Effect(EffectKind.STORE, (regs[ra] + imm) & 0xFFFF,
                              regs[rb])
            stats.loads += 1
            return Effect(EffectKind.LOAD, (regs[ra] + imm) & 0xFFFF, 0, rd)
        return op
    return bind


def _sync(sync_op: SyncOp):
    return _fixed(lambda instr: Effect(EffectKind.SYNC, 0, 0, 0, sync_op,
                                       instr.imm))


_BIND = {
    Op.ADD: _alu(add),
    Op.SUB: _alu(sub),
    Op.AND: _alu(and_),
    Op.OR: _alu(or_),
    Op.XOR: _alu(xor),
    Op.SLL: _alu(lambda a, b: a << (b & 0xF)),
    Op.SRL: _alu(lambda a, b: a >> (b & 0xF)),
    Op.SRA: _alu(lambda a, b: _s16(a) >> (b & 0xF)),
    Op.SLT: _alu(lambda a, b: int((a ^ 0x8000) < (b ^ 0x8000))),
    Op.SLTU: _alu(lambda a, b: int(a < b)),
    Op.MUL: _multiply(0),
    Op.MULH: _multiply(16),
    Op.ADDI: _alu(add, True),
    Op.ANDI: _alu(and_, True),
    Op.ORI: _alu(or_, True),
    Op.XORI: _alu(xor, True),
    Op.SLLI: _alu(lambda a, imm: a << (imm & 0xF), True),
    Op.SRLI: _alu(lambda a, imm: a >> (imm & 0xF), True),
    Op.SRAI: _alu(lambda a, imm: _s16(a) >> (imm & 0xF), True),
    Op.SLTI: _alu(lambda a, imm: int(_s16(a) < imm), True),
    Op.LUI: _alu(lambda a, imm: (imm & 0xFF) << 8, True),
    Op.LW: _memory(store=False),
    Op.SW: _memory(store=True),
    Op.BEQ: _branch(eq),
    Op.BNE: _branch(ne),
    Op.BLT: _branch(lambda a, b: (a ^ 0x8000) < (b ^ 0x8000)),
    Op.BGE: _branch(lambda a, b: (a ^ 0x8000) >= (b ^ 0x8000)),
    Op.BLTU: _branch(lt),
    Op.BGEU: _branch(ge),
    Op.JAL: _jump(indirect=False),
    Op.JALR: _jump(indirect=True),
    Op.SINC: _sync(SyncOp.SINC),
    Op.SDEC: _sync(SyncOp.SDEC),
    Op.SNOP: _sync(SyncOp.SNOP),
    Op.SLEEP: _fixed(lambda instr: _SLEEP),
    Op.NOP: _nop,
    Op.HALT: _fixed(lambda instr: _HALT, 0),
}


def bind(instr: Instruction, address: int):
    """The call ``op(core)`` that executes ``instr`` for a core whose
    ``pc`` is ``address``; it returns the effect, or None."""
    return _BIND[instr.op](instr, address)


class RiscCore:
    """One computing core.

    The platform drives the core with this per-cycle contract:

    1. if ``halted``/``gated`` — idle (booked when the state ends);
    2. if ``busy_cycles_left`` — burn one busy cycle;
    3. if a load/store is pending — re-present it to the crossbar;
    4. otherwise fetch at ``pc`` (subject to IM arbitration) and run
       the instruction bound there (:func:`bind`).
    """

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self.reset(0)

    def complete_load(self, effect: Effect, value: int) -> None:
        """Deliver granted load data to the destination register."""
        if effect.rd:
            self.regs[effect.rd] = value & 0xFFFF

    def reset(self, entry: int) -> None:
        """Power-on reset at ``entry``."""
        self.regs = [0] * 8
        self.pc = entry & 0x7FFF
        self.halted = False
        self.gated = False
        self.busy_cycles_left = 0
        self.stats = CoreStats()
