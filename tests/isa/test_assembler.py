"""Tests for the assembler / builder (bank placement, symbols, pseudos)."""

import pytest

from repro.isa.assembler import Assembler, assemble, assemble_many
from repro.isa.encoding import decode
from repro.isa.errors import AssemblerError, LinkError
from repro.isa.spec import Op


def _ops(image):
    """Decoded opcodes of the image in address order."""
    return [decode(image.im[a]).op for a in sorted(image.im)]


def test_simple_program_assembles():
    image = assemble("""
        main:
            addi r1, zero, 5
            addi r2, zero, 7
            add  r3, r1, r2
            halt
    """)
    assert _ops(image) == [Op.ADDI, Op.ADDI, Op.ADD, Op.HALT]
    assert image.entries == {0: image.symbols["main"]}


def test_labels_and_branches_resolve_relative_to_next_pc():
    image = assemble("""
        main:
            addi r1, zero, 3
        loop:
            addi r1, r1, -1
            bnez r1, loop
            halt
    """)
    words = [image.im[a] for a in sorted(image.im)]
    branch = decode(words[2])
    assert branch.op == Op.BNE
    # branch sits at offset 2, target at offset 1 -> imm = 1 - (2+1) = -2
    assert branch.imm == -2


def test_forward_references_resolve():
    image = assemble("""
        main:
            j end
            nop
        end:
            halt
    """)
    jump = decode(image.im[min(image.im)])
    assert jump.op == Op.JAL
    assert jump.imm == image.symbols["end"]


def test_li_expands_to_lui_ori():
    image = assemble("""
        main:
            li r1, 0x1234
            halt
    """)
    words = [decode(image.im[a]) for a in sorted(image.im)]
    assert words[0].op == Op.LUI
    assert words[0].imm == 0x12
    assert words[1].op == Op.ORI
    assert words[1].imm == 0x34


def test_memory_operands():
    image = assemble("""
        main:
            lw r1, 4(r2)
            sw r1, -2(r3)
            halt
    """)
    load, store = (decode(image.im[a]) for a in sorted(image.im)[:2])
    assert (load.op, load.rd, load.ra, load.imm) == (Op.LW, 1, 2, 4)
    assert (store.op, store.rb, store.ra, store.imm) == (Op.SW, 1, 3, -2)


def test_equ_and_expressions():
    image = assemble("""
        .equ BASE, 0x100
        .equ COUNT, 4*2+1
        main:
            addi r1, zero, BASE >> 4
            addi r2, zero, COUNT
            halt
    """)
    words = [decode(image.im[a]) for a in sorted(image.im)]
    assert words[0].imm == 0x10
    assert words[1].imm == 9


def test_section_bank_placement():
    image = assemble("""
        .section phase_a, bank=2
        a:  nop
            halt
        .section phase_b, bank=5
        b:  nop
            halt
    """)
    banks = {section.name: section.bank for section in image.sections}
    assert banks == {"phase_a": 2, "phase_b": 5}
    assert image.symbols["a"] == 2 * 4096
    assert image.symbols["b"] == 5 * 4096
    assert image.banks_used() == {2, 5}


def test_two_sections_in_same_bank_are_packed():
    image = assemble("""
        .section one, bank=1
            nop
            nop
        .section two, bank=1
        second:
            halt
    """)
    assert image.symbols["second"] == 1 * 4096 + 2


def test_org_absolute_placement():
    image = assemble("""
        .section boot, org=0x20
        main:
            halt
    """)
    assert image.symbols["main"] == 0x20


def test_entry_directive_sets_core_entries():
    image = assemble("""
        .entry 0, first
        .entry 3, second
        first:  halt
        second: halt
    """)
    assert image.entries[0] == image.symbols["first"]
    assert image.entries[3] == image.symbols["second"]


def test_dm_directive_initialises_data_memory():
    image = assemble("""
        .equ TABLE, 0x900
        .dm TABLE, 1, 2, 3
        main: halt
    """)
    assert image.dm_init == {0x900: 1, 0x901: 2, 0x902: 3}


def test_sync_instructions_assemble_and_are_counted():
    image = assemble("""
        main:
            sinc 3
            sdec 3
            snop 4
            sleep
            halt
    """)
    assert image.sync_instruction_count() == 4
    assert image.code_overhead() == pytest.approx(4 / 5)


def test_sync_literal_from_equ():
    image = assemble("""
        .equ SP_DATA, 7
        main:
            sinc SP_DATA
            halt
    """)
    instr = decode(image.im[min(image.im)])
    assert instr.op == Op.SINC
    assert instr.imm == 7


def test_duplicate_label_rejected():
    with pytest.raises(AssemblerError, match="duplicate symbol"):
        assemble("dup: nop\ndup: nop")


def test_unknown_mnemonic_reports_line():
    with pytest.raises(AssemblerError, match="3"):
        assemble("main:\n    nop\n    frobnicate r1\n")


def test_undefined_symbol_rejected():
    with pytest.raises(AssemblerError, match="undefined symbol"):
        assemble("main: j nowhere")


def test_bank_overflow_rejected():
    source = ".section big, bank=0\n" + "nop\n" * 4097
    with pytest.raises(LinkError, match="does not fit"):
        assemble(source)


def test_overlapping_org_sections_rejected():
    with pytest.raises(LinkError, match="overlap"):
        assemble("""
            .section a, org=0x10
                nop
                nop
            .section b, org=0x11
                nop
        """)


def test_bad_bank_rejected():
    with pytest.raises(LinkError, match="banks"):
        assemble(".section a, bank=9\nnop")


def test_assemble_many_links_multiple_sources():
    image = assemble_many({
        "a.s": ".entry 0, main\nmain: call helper\nhalt_loop: j halt_loop",
        "b.s": "helper: ret",
    })
    assert "helper" in image.symbols
    assert image.entries[0] == image.symbols["main"]


def test_pseudo_branches():
    image = assemble("""
        main:
            bgt r1, r2, over    ; blt r2, r1
            ble r1, r2, over    ; bge r2, r1
        over:
            halt
    """)
    first, second = (decode(image.im[a]) for a in sorted(image.im)[:2])
    assert (first.op, first.ra, first.rb) == (Op.BLT, 2, 1)
    assert (second.op, second.ra, second.rb) == (Op.BGE, 2, 1)


def test_align_pads_with_nops():
    image = assemble("""
        main:
            nop
        .align 4
        target:
            halt
    """)
    assert image.symbols["target"] % 4 == 0


def test_chained_assembler_api():
    assembler = Assembler()
    image = (assembler
             .add_source("main: call f\nloop: j loop", "main.s")
             .add_source("f: ret", "lib.s")
             .build())
    assert image.symbols["f"] > 0


def test_word_directive_emits_raw_words():
    image = assemble("""
        table:
            .word 0x123456, 7
        main:
            halt
    """)
    base = image.symbols["table"]
    assert image.im[base] == 0x123456
    assert image.im[base + 1] == 7


def test_default_entry_is_main_if_present():
    image = assemble("start: nop\nmain: halt")
    assert image.entries[0] == image.symbols["main"]


def test_hi_lo_operators():
    image = assemble("""
        .equ VALUE, 0xABCD
        main:
            lui r1, %hi(VALUE)
            ori r1, r1, %lo(VALUE)
            halt
    """)
    hi, lo = (decode(image.im[a]) for a in sorted(image.im)[:2])
    assert hi.imm == 0xAB
    assert lo.imm == 0xCD
