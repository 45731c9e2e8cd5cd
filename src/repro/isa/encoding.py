"""Binary encoding and decoding of 24-bit instruction words.

The :class:`Instruction` dataclass is the in-memory form used by the
assembler, the disassembler and the cycle-level core model.  ``encode``
packs it into a 24-bit integer; ``decode`` unpacks.  The pair round-trips
exactly (property-tested in ``tests/isa/test_encoding.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EncodingError
from .spec import (
    IMM_BITS,
    INSTR_MASK,
    JUMP_ADDR_BITS,
    NUM_REGS,
    OP_TABLE,
    SYNC_LIT_BITS,
    Format,
    Op,
    fits_signed,
    fits_unsigned,
    signed,
)

_OPCODE_SHIFT = 18
_RD_SHIFT = 15
_RA_SHIFT = 12
_RB_SHIFT = 9

#: Per format: the register fields as ``(name, shift)``, in the order
#: they are checked, and the immediate as ``(shift, bits, signed,
#: what)`` (``what`` names it in errors), or None.
_LAYOUT: dict[Format, tuple[tuple[tuple[str, int], ...],
                            tuple[int, int, bool, str] | None]] = {
    Format.R: ((("rd", _RD_SHIFT), ("ra", _RA_SHIFT), ("rb", _RB_SHIFT)),
               None),
    Format.I: ((("rd", _RD_SHIFT), ("ra", _RA_SHIFT)),
               (0, IMM_BITS, True, "immediate {}")),
    Format.S: ((("rb", _RD_SHIFT), ("ra", _RA_SHIFT)),
               (0, IMM_BITS, True, "immediate {}")),
    Format.B: ((("ra", _RD_SHIFT), ("rb", _RA_SHIFT)),
               (0, IMM_BITS, True, "branch offset {}")),
    Format.J: ((("rd", _RD_SHIFT),),
               (0, JUMP_ADDR_BITS, False, "target address {:#x}")),
    Format.U: ((("rd", _RD_SHIFT),), (7, 8, False, "immediate {}")),
    Format.Y: ((), (2, SYNC_LIT_BITS, False, "sync point literal {}")),
    Format.N: ((), None),
}


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction.

    Field use depends on the format; unused fields stay at zero:

    * R: ``rd``, ``ra``, ``rb``
    * I: ``rd``, ``ra``, ``imm`` (signed 12-bit)
    * S: ``rb`` (source), ``ra`` (base), ``imm`` (signed 12-bit)
    * B: ``ra``, ``rb``, ``imm`` (signed 12-bit word offset)
    * J: ``rd``, ``imm`` (absolute word address, unsigned 15-bit)
    * U: ``rd``, ``imm`` (unsigned 8-bit, loaded into the high byte)
    * Y: ``imm`` (unsigned 16-bit sync-point literal)
    * N: no fields
    """

    op: Op
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int = 0

    @property
    def fmt(self) -> Format:
        """Encoding format of this instruction."""
        return OP_TABLE[self.op].fmt

    @property
    def mnemonic(self) -> str:
        """Assembler mnemonic of this instruction."""
        return OP_TABLE[self.op].mnemonic

    def __str__(self) -> str:  # pragma: no cover - convenience only
        from .disassembler import format_instruction

        return format_instruction(self)


def encode(instr: Instruction) -> int:
    """Encode an :class:`Instruction` into a 24-bit word."""
    info = OP_TABLE.get(instr.op)
    if info is None:
        raise EncodingError(f"unknown opcode {instr.op!r}")
    word = int(instr.op) << _OPCODE_SHIFT
    registers, immediate = _LAYOUT[info.fmt]
    for name, shift in registers:
        value = getattr(instr, name)
        if not 0 <= value < NUM_REGS:
            raise EncodingError(f"register field {name}={value} out of range")
        word |= value << shift
    if immediate is not None:
        shift, bits, is_signed, what = immediate
        if not (fits_signed if is_signed else fits_unsigned)(instr.imm, bits):
            raise EncodingError(
                f"{info.mnemonic}: {what.format(instr.imm)} does not fit "
                f"{'signed' if is_signed else 'unsigned'} {bits}-bit field")
        word |= (instr.imm & ((1 << bits) - 1)) << shift
    return word & INSTR_MASK


def decode(word: int) -> Instruction:
    """Decode a 24-bit word into an :class:`Instruction`."""
    if not 0 <= word <= INSTR_MASK:
        raise EncodingError(f"instruction word {word:#x} is not 24-bit")
    opcode = (word >> _OPCODE_SHIFT) & 0x3F
    try:
        op = Op(opcode)
    except ValueError as exc:
        raise EncodingError(f"illegal opcode {opcode:#04x}") from exc
    registers, immediate = _LAYOUT[OP_TABLE[op].fmt]
    fields = {name: (word >> shift) & 0x7 for name, shift in registers}
    if immediate is not None:
        shift, bits, is_signed, _ = immediate
        value = (word >> shift) & ((1 << bits) - 1)
        fields["imm"] = signed(value, bits) if is_signed else value
    return Instruction(op, **fields)
