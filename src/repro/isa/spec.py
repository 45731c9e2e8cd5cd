"""Instruction-set specification of the 16-bit WBSN RISC core.

The paper's platform uses 16-bit RISC cores with a three-stage pipeline
and 24-bit wide instruction memory words (Sec. IV-B: "32 KWords of 24
bits width").  This module defines a clean ISA with those parameters:

* 8 general-purpose 16-bit registers ``r0``..``r7``; ``r0`` reads as zero
  and writes to it are discarded.
* 24-bit instruction words, word-addressed instruction memory.
* 16-bit data words, word-addressed data memory.
* The synchronization instruction-set extension of the paper:
  ``sinc``, ``sdec``, ``snop`` (each taking a sync-point literal) and
  ``sleep`` (Sec. III-A/III-B).

Encoding formats (24 bits, opcode in the top 6 bits):

====== ======================================= =========================
Format Fields (msb -> lsb)                     Used by
====== ======================================= =========================
R      op[6] rd[3] ra[3] rb[3] pad[9]          register ALU ops
I      op[6] rd[3] ra[3] imm[12] (signed)      immediate ALU, lw, jalr
S      op[6] rb[3] ra[3] imm[12] (signed)      sw (rb stored at ra+imm)
B      op[6] ra[3] rb[3] off[12] (signed)      conditional branches
J      op[6] rd[3] addr[15] (absolute word)    jal
U      op[6] rd[3] imm[8] pad[7]               lui (rd = imm << 8)
Y      op[6] lit[16] pad[2]                    sinc / sdec / snop
N      op[6] pad[18]                           nop, halt, sleep
====== ======================================= =========================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Number of general purpose registers.
NUM_REGS = 8

#: Instruction word width in bits (matches the paper's IM geometry).
INSTR_BITS = 24

#: Data word width in bits.
DATA_BITS = 16

#: Mask for a 16-bit data word.
WORD_MASK = (1 << DATA_BITS) - 1

#: Mask for a 24-bit instruction word.
INSTR_MASK = (1 << INSTR_BITS) - 1

#: Width of the absolute jump target field (covers the 32 KWord IM).
JUMP_ADDR_BITS = 15

#: Width of signed immediate fields in I/S/B formats.
IMM_BITS = 12

#: Width of the sync-point literal field.
SYNC_LIT_BITS = 16


class Format(enum.Enum):
    """Instruction encoding formats."""

    R = "R"
    I = "I"  # noqa: E741 - conventional ISA format name
    S = "S"
    B = "B"
    J = "J"
    U = "U"
    Y = "Y"
    N = "N"


class Op(enum.IntEnum):
    """Opcode numbers.

    The numeric values are the 6-bit opcode field contents and are part
    of the binary format; do not renumber.
    """

    # -- R format: rd = ra OP rb ------------------------------------
    ADD = 0x00
    SUB = 0x01
    AND = 0x02
    OR = 0x03
    XOR = 0x04
    SLL = 0x05
    SRL = 0x06
    SRA = 0x07
    SLT = 0x08
    SLTU = 0x09
    MUL = 0x0A
    MULH = 0x0B

    # -- I format: rd = ra OP imm ------------------------------------
    ADDI = 0x10
    ANDI = 0x11
    ORI = 0x12
    XORI = 0x13
    SLLI = 0x14
    SRLI = 0x15
    SRAI = 0x16
    SLTI = 0x17
    LW = 0x18
    JALR = 0x19

    # -- S format ------------------------------------------------------
    SW = 0x1A

    # -- U format ------------------------------------------------------
    LUI = 0x1B

    # -- B format: branch if (ra OP rb) --------------------------------
    BEQ = 0x20
    BNE = 0x21
    BLT = 0x22
    BGE = 0x23
    BLTU = 0x24
    BGEU = 0x25

    # -- J format ------------------------------------------------------
    JAL = 0x28

    # -- Y format: synchronization ISE (the paper's contribution) ------
    SINC = 0x30
    SDEC = 0x31
    SNOP = 0x32

    # -- N format ------------------------------------------------------
    SLEEP = 0x33
    NOP = 0x38
    HALT = 0x3F


@dataclass(frozen=True)
class OpInfo:
    """Static properties of one opcode.

    Attributes:
        op: the opcode.
        mnemonic: assembler mnemonic (lower case).
        fmt: encoding format.
        cycles: base execution cycles on the 3-stage core.  Taken
            branches and jumps add one flush cycle on top (modelled by
            the core, not here).
        reads_mem: instruction performs a data-memory read.
        writes_mem: instruction performs a data-memory write.
        is_sync: instruction is part of the synchronization ISE.
    """

    op: Op
    mnemonic: str
    fmt: Format
    cycles: int = 1
    reads_mem: bool = False
    writes_mem: bool = False
    is_sync: bool = False


def _build_op_table() -> dict[Op, OpInfo]:
    infos = [
        OpInfo(Op.ADD, "add", Format.R),
        OpInfo(Op.SUB, "sub", Format.R),
        OpInfo(Op.AND, "and", Format.R),
        OpInfo(Op.OR, "or", Format.R),
        OpInfo(Op.XOR, "xor", Format.R),
        OpInfo(Op.SLL, "sll", Format.R),
        OpInfo(Op.SRL, "srl", Format.R),
        OpInfo(Op.SRA, "sra", Format.R),
        OpInfo(Op.SLT, "slt", Format.R),
        OpInfo(Op.SLTU, "sltu", Format.R),
        OpInfo(Op.MUL, "mul", Format.R, cycles=2),
        OpInfo(Op.MULH, "mulh", Format.R, cycles=2),
        OpInfo(Op.ADDI, "addi", Format.I),
        OpInfo(Op.ANDI, "andi", Format.I),
        OpInfo(Op.ORI, "ori", Format.I),
        OpInfo(Op.XORI, "xori", Format.I),
        OpInfo(Op.SLLI, "slli", Format.I),
        OpInfo(Op.SRLI, "srli", Format.I),
        OpInfo(Op.SRAI, "srai", Format.I),
        OpInfo(Op.SLTI, "slti", Format.I),
        OpInfo(Op.LW, "lw", Format.I, reads_mem=True),
        OpInfo(Op.JALR, "jalr", Format.I),
        OpInfo(Op.SW, "sw", Format.S, writes_mem=True),
        OpInfo(Op.LUI, "lui", Format.U),
        OpInfo(Op.BEQ, "beq", Format.B),
        OpInfo(Op.BNE, "bne", Format.B),
        OpInfo(Op.BLT, "blt", Format.B),
        OpInfo(Op.BGE, "bge", Format.B),
        OpInfo(Op.BLTU, "bltu", Format.B),
        OpInfo(Op.BGEU, "bgeu", Format.B),
        OpInfo(Op.JAL, "jal", Format.J),
        OpInfo(Op.SINC, "sinc", Format.Y, is_sync=True),
        OpInfo(Op.SDEC, "sdec", Format.Y, is_sync=True),
        OpInfo(Op.SNOP, "snop", Format.Y, is_sync=True),
        OpInfo(Op.SLEEP, "sleep", Format.N, is_sync=True),
        OpInfo(Op.NOP, "nop", Format.N),
        OpInfo(Op.HALT, "halt", Format.N),
    ]
    return {info.op: info for info in infos}


#: Opcode -> static properties.
OP_TABLE: dict[Op, OpInfo] = _build_op_table()

#: Mnemonic -> static properties (assembler entry point).
MNEMONIC_TABLE: dict[str, OpInfo] = {
    info.mnemonic: info for info in OP_TABLE.values()
}

#: Register aliases accepted by the assembler, mapping to register numbers.
REG_ALIASES: dict[str, int] = {
    **{f"r{i}": i for i in range(NUM_REGS)},
    "zero": 0,
    "sp": 6,
    "ra": 7,
}

#: Canonical register names used by the disassembler.
REG_NAMES: tuple[str, ...] = tuple(f"r{i}" for i in range(NUM_REGS))


def signed(value: int, bits: int) -> int:
    """Interpret ``value``'s low ``bits`` bits as a two's-complement int."""
    mask = (1 << bits) - 1
    value &= mask
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def fits_signed(value: int, bits: int) -> bool:
    """True if ``value`` is representable as a signed ``bits``-bit field."""
    half = 1 << (bits - 1)
    return -half <= value < half


def fits_unsigned(value: int, bits: int) -> bool:
    """True if ``value`` is representable as an unsigned ``bits``-bit field."""
    return 0 <= value < (1 << bits)
