"""ISA tool-chain: instruction set, assembler, disassembler, images.

A 16-bit RISC instruction set with 24-bit instruction words, extended
with the paper's synchronization instructions (``sinc``, ``sdec``,
``snop``, ``sleep``), plus the programming tool-chain (assembler +
builder/linker with bank-placement directives) of the paper's
Sec. IV-C.  See ``docs/architecture.md``, section "`repro.isa` →
`repro.hw`".

The package imports none of its modules: the behavioural layers read
only :mod:`repro.isa.layout`, so importing it must not build the
assembler.  Import the defining module, e.g.
``from repro.isa.assembler import assemble``.
"""
