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

The core communicates with the platform through :class:`Effect` values
returned by :meth:`RiscCore.execute`; the platform performs arbitration
and calls back :meth:`RiscCore.complete_load` / the sync interfaces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import add, and_, eq, ge, lt, ne, or_, sub, xor

from ..core.syncpoint import SyncOp
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
_NO_EFFECT = Effect(EffectKind.NONE)
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


# Instruction semantics, one handler per opcode, run once ``execute``
# has moved ``pc`` past the instruction.  Registers hold 16-bit words
# and r0 is never written, so it reads as zero; flipping bit 15 orders
# words as signed integers.


def _s16(word: int) -> int:
    """The signed value of a 16-bit word."""
    return (word ^ 0x8000) - 0x8000


def _reg_op(fn):
    """``rd = fn(ra, rb)``, wrapped to 16 bits."""
    def handler(core: "RiscCore", instr: Instruction) -> Effect:
        if instr.rd:
            regs = core.regs
            regs[instr.rd] = fn(regs[instr.ra], regs[instr.rb]) & 0xFFFF
        return _NO_EFFECT
    return handler


def _imm_op(fn):
    """``rd = fn(ra, imm)``, wrapped to 16 bits."""
    def handler(core: "RiscCore", instr: Instruction) -> Effect:
        if instr.rd:
            regs = core.regs
            regs[instr.rd] = fn(regs[instr.ra], instr.imm) & 0xFFFF
        return _NO_EFFECT
    return handler


def _multiply(shift: int):
    """``mul``/``mulh``: bits ``shift``.. of the signed product."""
    def handler(core: "RiscCore", instr: Instruction) -> Effect:
        regs = core.regs
        if instr.rd:
            product = _s16(regs[instr.ra]) * _s16(regs[instr.rb])
            regs[instr.rd] = (product >> shift) & 0xFFFF
        core.busy_cycles_left += 1
        return _NO_EFFECT
    return handler


def _branch(taken):
    """Conditional branch; a taken one costs a flush cycle."""
    def handler(core: "RiscCore", instr: Instruction) -> Effect:
        regs = core.regs
        if taken(regs[instr.ra], regs[instr.rb]):
            core.pc = (core.pc + instr.imm) & 0x7FFF
            core.busy_cycles_left += 1
            core.stats.taken_branches += 1
        return _NO_EFFECT
    return handler


def _jump(core: "RiscCore", instr: Instruction, target: int) -> Effect:
    """Link and jump (``jal``/``jalr``); always costs a flush cycle."""
    if instr.rd:
        # The link is this instruction's address plus one, unwrapped.
        core.regs[instr.rd] = ((core.pc - 1) & 0x7FFF) + 1
    core.pc = target & 0x7FFF
    core.busy_cycles_left += 1
    core.stats.taken_branches += 1
    return _NO_EFFECT


def _load(core: "RiscCore", instr: Instruction) -> Effect:
    core.stats.loads += 1
    return Effect(EffectKind.LOAD, (core.regs[instr.ra] + instr.imm)
                  & 0xFFFF, 0, instr.rd)


def _store(core: "RiscCore", instr: Instruction) -> Effect:
    core.stats.stores += 1
    regs = core.regs
    return Effect(EffectKind.STORE, (regs[instr.ra] + instr.imm) & 0xFFFF,
                  regs[instr.rb])


def _sync(op: SyncOp):
    def handler(core: "RiscCore", instr: Instruction) -> Effect:
        core.stats.sync_issued += 1
        return Effect(EffectKind.SYNC, 0, 0, 0, op, instr.imm)
    return handler


def _sleep(core: "RiscCore", instr: Instruction) -> Effect:
    core.stats.sync_issued += 1
    return _SLEEP


_EXECUTE = {
    Op.ADD: _reg_op(add),
    Op.SUB: _reg_op(sub),
    Op.AND: _reg_op(and_),
    Op.OR: _reg_op(or_),
    Op.XOR: _reg_op(xor),
    Op.SLL: _reg_op(lambda a, b: a << (b & 0xF)),
    Op.SRL: _reg_op(lambda a, b: a >> (b & 0xF)),
    Op.SRA: _reg_op(lambda a, b: _s16(a) >> (b & 0xF)),
    Op.SLT: _reg_op(lambda a, b: int((a ^ 0x8000) < (b ^ 0x8000))),
    Op.SLTU: _reg_op(lambda a, b: int(a < b)),
    Op.MUL: _multiply(0),
    Op.MULH: _multiply(16),
    Op.ADDI: _imm_op(add),
    Op.ANDI: _imm_op(and_),
    Op.ORI: _imm_op(or_),
    Op.XORI: _imm_op(xor),
    Op.SLLI: _imm_op(lambda a, imm: a << (imm & 0xF)),
    Op.SRLI: _imm_op(lambda a, imm: a >> (imm & 0xF)),
    Op.SRAI: _imm_op(lambda a, imm: _s16(a) >> (imm & 0xF)),
    Op.SLTI: _imm_op(lambda a, imm: int(_s16(a) < imm)),
    Op.LUI: _imm_op(lambda a, imm: (imm & 0xFF) << 8),
    Op.LW: _load,
    Op.SW: _store,
    Op.BEQ: _branch(eq),
    Op.BNE: _branch(ne),
    Op.BLT: _branch(lambda a, b: (a ^ 0x8000) < (b ^ 0x8000)),
    Op.BGE: _branch(lambda a, b: (a ^ 0x8000) >= (b ^ 0x8000)),
    Op.BLTU: _branch(lt),
    Op.BGEU: _branch(ge),
    Op.JAL: lambda core, instr: _jump(core, instr, instr.imm),
    Op.JALR: lambda core, instr: _jump(
        core, instr, core.regs[instr.ra] + instr.imm),
    Op.SINC: _sync(SyncOp.SINC),
    Op.SDEC: _sync(SyncOp.SDEC),
    Op.SNOP: _sync(SyncOp.SNOP),
    Op.SLEEP: _sleep,
    Op.NOP: lambda core, instr: _NO_EFFECT,
    Op.HALT: lambda core, instr: _HALT,
}


class RiscCore:
    """One computing core.

    The platform drives the core with this per-cycle contract:

    1. if ``halted``/``gated`` — idle (booked when the state ends);
    2. if ``busy_cycles_left`` — burn one busy cycle;
    3. if a load/store is pending — re-present it to the crossbar;
    4. otherwise fetch at ``pc`` (subject to IM arbitration) and call
       :meth:`execute`.
    """

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self.reset(0)

    def read_reg(self, index: int) -> int:
        """Read a register (r0 reads as zero)."""
        return self.regs[index]

    def execute(self, instr: Instruction) -> Effect:
        """Execute one fetched instruction; returns its platform effect.

        Updates ``pc`` and timing state.  For loads/stores the returned
        effect must be granted by the platform (possibly after stalls)
        before the core may fetch again.
        """
        self.stats.instructions += 1
        self.pc = (self.pc + 1) & 0x7FFF
        return _EXECUTE[instr.op](self, instr)

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
