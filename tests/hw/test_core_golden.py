"""Differential test: the RISC core against an independent golden model.

Hypothesis generates random straight-line ALU programs; both the
cycle-level platform and a from-scratch interpreter written here (no
shared code with ``repro.hw.core``) execute them, and the final
register files must agree.  This catches semantic drift in either the
encoder, the assembler-free loader path, or the core's execute logic.
"""

from hypothesis import given, settings, strategies as st

from repro.hw.system import System
from repro.isa.encoding import Instruction, encode
from repro.isa.program import ProgramImage
from repro.isa.spec import Op

_ALU_R = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLL, Op.SRL,
          Op.SRA, Op.SLT, Op.SLTU, Op.MUL, Op.MULH]
_ALU_I = [Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLLI, Op.SRLI,
          Op.SRAI, Op.SLTI, Op.LUI]

_REG = st.integers(min_value=0, max_value=7)
_IMM = st.integers(min_value=-2048, max_value=2047)
_IMM8 = st.integers(min_value=0, max_value=255)


@st.composite
def alu_instruction(draw) -> Instruction:
    if draw(st.booleans()):
        op = draw(st.sampled_from(_ALU_R))
        return Instruction(op, rd=draw(_REG), ra=draw(_REG),
                           rb=draw(_REG))
    op = draw(st.sampled_from(_ALU_I))
    imm = draw(_IMM8) if op is Op.LUI else draw(_IMM)
    return Instruction(op, rd=draw(_REG), ra=draw(_REG), imm=imm)


def _signed(value: int) -> int:
    value &= 0xFFFF
    return value - 0x10000 if value & 0x8000 else value


def _golden(instructions: list[Instruction]) -> list[int]:
    """Independent interpreter of the ALU subset."""
    regs = [0] * 8

    def read(index: int) -> int:
        return 0 if index == 0 else regs[index]

    def write(index: int, value: int) -> None:
        if index != 0:
            regs[index] = value & 0xFFFF

    for instr in instructions:
        op = instr.op
        a, b = read(instr.ra), read(instr.rb)
        if op is Op.ADD:
            write(instr.rd, a + b)
        elif op is Op.SUB:
            write(instr.rd, a - b)
        elif op is Op.AND:
            write(instr.rd, a & b)
        elif op is Op.OR:
            write(instr.rd, a | b)
        elif op is Op.XOR:
            write(instr.rd, a ^ b)
        elif op is Op.SLL:
            write(instr.rd, a << (b & 0xF))
        elif op is Op.SRL:
            write(instr.rd, a >> (b & 0xF))
        elif op is Op.SRA:
            write(instr.rd, _signed(a) >> (b & 0xF))
        elif op is Op.SLT:
            write(instr.rd, int(_signed(a) < _signed(b)))
        elif op is Op.SLTU:
            write(instr.rd, int(a < b))
        elif op is Op.MUL:
            write(instr.rd, _signed(a) * _signed(b))
        elif op is Op.MULH:
            write(instr.rd, (_signed(a) * _signed(b)) >> 16)
        elif op is Op.ADDI:
            write(instr.rd, a + instr.imm)
        elif op is Op.ANDI:
            write(instr.rd, a & (instr.imm & 0xFFFF))
        elif op is Op.ORI:
            write(instr.rd, a | (instr.imm & 0xFFFF))
        elif op is Op.XORI:
            write(instr.rd, a ^ (instr.imm & 0xFFFF))
        elif op is Op.SLLI:
            write(instr.rd, a << (instr.imm & 0xF))
        elif op is Op.SRLI:
            write(instr.rd, a >> (instr.imm & 0xF))
        elif op is Op.SRAI:
            write(instr.rd, _signed(a) >> (instr.imm & 0xF))
        elif op is Op.SLTI:
            write(instr.rd, int(_signed(a) < instr.imm))
        elif op is Op.LUI:
            write(instr.rd, (instr.imm & 0xFF) << 8)
        else:  # pragma: no cover
            raise AssertionError(f"unexpected op {op}")
    return regs


@settings(max_examples=120, deadline=None)
@given(st.lists(alu_instruction(), min_size=1, max_size=40))
def test_core_matches_golden_model(instructions):
    image = ProgramImage()
    for address, instr in enumerate(instructions):
        image.im[address] = encode(instr)
    image.im[len(instructions)] = encode(Instruction(Op.HALT))
    image.entries[0] = 0

    system = System.singlecore()
    system.load(image)
    system.run(10 * len(instructions) + 10)
    assert system.all_halted

    expected = _golden(instructions)
    actual = system.cores[0].regs[:8]
    assert actual == expected
