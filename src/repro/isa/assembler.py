"""Two-pass assembler and builder for the WBSN RISC ISA.

This is the "programming tool-chain (compiler, builder and linker)" of
the paper's Sec. IV-C, scaled to the reproduction: assembly sources are
translated to machine code and *building directives* guide the placement
of each code section into a specific instruction-memory bank, which is
step 3 ("Mapping") of the synchronization methodology — code of
different application phases is placed in different IM banks so that
cores running the same phase fetch from the same bank and benefit from
instruction broadcasting.

Syntax overview
---------------

* one statement per line; comments start with ``;`` or ``#``;
* labels are ``name:`` (several may share a line with a statement);
* registers: ``r0``-``r7`` plus aliases ``zero`` (r0), ``sp`` (r6),
  ``ra`` (r7);
* memory operands use ``offset(reg)``, e.g. ``lw r1, 4(r2)``;
* expressions allow integers (``42``, ``0x2A``, ``0b1010``), symbols,
  ``+ - * / % << >> & | ^ ~`` and parentheses, plus ``%hi(e)``/``%lo(e)``
  for the high/low byte of a 16-bit value;

Directives
----------

``.section NAME [bank=N] [org=ADDR]``
    open (or re-open) a code section; ``bank`` pins the section to an IM
    bank, ``org`` pins it to an absolute IM word address.
``.bank N`` / ``.org ADDR``
    set the placement of the *current* section (before any code).
``.align N``
    pad with ``nop`` up to a multiple of N words.
``.word E, ...``
    emit raw 24-bit words.
``.equ NAME, E``
    define a constant.
``.dm ADDR, E, ...``
    initial data-memory words at logical address ADDR.
``.dmfootprint E``
    declare the highest data address the program touches at run time
    (drives bank power-off on the single-core baseline).
``.entry CORE, LABEL``
    set the reset PC of core CORE.
``.global NAME``
    accepted for compatibility; all symbols share one namespace.

Pseudo-instructions
-------------------

``li rd, e`` (lui+ori, always two words), ``mv``, ``j``, ``jr``,
``call``, ``ret``, ``beqz``, ``bnez``, ``bltz``, ``bgez``, ``bgt``,
``ble``, ``bgtu``, ``bleu``, ``inc``, ``dec``, ``not``, ``neg``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .encoding import Instruction, encode
from .errors import AssemblerError, LinkError
from .layout import IM_BANKS, IM_WORDS_PER_BANK
from .program import ProgramImage, SectionInfo
from .spec import MNEMONIC_TABLE, REG_ALIASES, Op

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)"
    r"|(?P<name>%?[A-Za-z_.$][A-Za-z0-9_.$]*)"
    r"|(?P<op><<|>>|[-+*/%&|^~(),:=])"
    r")")

_LABEL_RE = re.compile(r"^\s*([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:")

#: The pseudo-instructions that stand for one real instruction: name ->
#: (operand count, real mnemonic, its operands, where an int ``i`` is
#: the pseudo's operand ``i``).  ``li`` is two words, built apart.
_PSEUDO: dict[str, tuple[int, str, tuple[int | str, ...]]] = {
    "mv": (2, "addi", (0, 1, "0")),
    "j": (1, "jal", ("zero", 0)),
    "jr": (1, "jalr", ("zero", 0, "0")),
    "call": (1, "jal", ("ra", 0)),
    "ret": (0, "jalr", ("zero", "ra", "0")),
    "beqz": (2, "beq", (0, "zero", 1)),
    "bnez": (2, "bne", (0, "zero", 1)),
    "bltz": (2, "blt", (0, "zero", 1)),
    "bgez": (2, "bge", (0, "zero", 1)),
    "bgt": (3, "blt", (1, 0, 2)),
    "ble": (3, "bge", (1, 0, 2)),
    "bgtu": (3, "bltu", (1, 0, 2)),
    "bleu": (3, "bgeu", (1, 0, 2)),
    "inc": (1, "addi", (0, 0, "1")),
    "dec": (1, "addi", (0, 0, "-1")),
    "not": (2, "xori", (0, 1, "-1")),
    "neg": (2, "sub", (0, "zero", 1)),
}


@dataclass
class _Section:
    """Assembly-time state of one code section."""

    name: str
    bank: int | None = None
    org: int | None = None
    words: list[object] = field(default_factory=list)  # int | _Pending
    base: int = 0

    @property
    def size(self) -> int:
        return len(self.words)


@dataclass
class _Pending:
    """A word whose value needs pass-2 symbol resolution."""

    build: object  # callable(resolver) -> int
    line: int
    source: str


class _ExprParser:
    """Recursive-descent evaluator for assembler expressions."""

    _PRECEDENCE = {
        "|": 1, "^": 2, "&": 3, "<<": 4, ">>": 4,
        "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
    }

    def __init__(self, tokens: list[str], resolve) -> None:
        self._tokens = tokens
        self._pos = 0
        self._resolve = resolve

    def parse(self) -> int:
        value = self._parse_binary(0)
        if self._pos != len(self._tokens):
            raise ValueError(
                f"trailing tokens in expression: {self._tokens[self._pos:]}")
        return value

    def _peek(self) -> str | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise ValueError("unexpected end of expression")
        self._pos += 1
        return token

    def _parse_binary(self, min_prec: int) -> int:
        left = self._parse_unary()
        while True:
            token = self._peek()
            prec = self._PRECEDENCE.get(token or "")
            if prec is None or prec < min_prec:
                return left
            self._next()
            right = self._parse_binary(prec + 1)
            left = self._apply(token, left, right)

    @staticmethod
    def _apply(op: str, a: int, b: int) -> int:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise ValueError("division by zero in expression")
            return a // b
        if op == "%":
            if b == 0:
                raise ValueError("modulo by zero in expression")
            return a % b
        if op == "<<":
            return a << b
        if op == ">>":
            return a >> b
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        return a ^ b

    def _parse_unary(self) -> int:
        token = self._next()
        if token == "-":
            return -self._parse_unary()
        if token == "+":
            return self._parse_unary()
        if token == "~":
            return ~self._parse_unary()
        if token == "(":
            value = self._parse_binary(0)
            if self._next() != ")":
                raise ValueError("missing ')' in expression")
            return value
        if token in ("%hi", "%lo"):
            if self._next() != "(":
                raise ValueError(f"{token} requires parentheses")
            value = self._parse_binary(0)
            if self._next() != ")":
                raise ValueError(f"missing ')' after {token}")
            return (value >> 8) & 0xFF if token == "%hi" else value & 0xFF
        if re.fullmatch(r"0[xX][0-9a-fA-F]+", token):
            return int(token, 16)
        if re.fullmatch(r"0[bB][01]+", token):
            return int(token, 2)
        if token.isdigit():
            return int(token)
        if re.fullmatch(r"[A-Za-z_.$][A-Za-z0-9_.$]*", token):
            return self._resolve(token)
        raise ValueError(f"unexpected token {token!r} in expression")


def _tokenize_expr(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot tokenize {rest!r}")
        token = match.group("num") or match.group("name") or match.group("op")
        tokens.append(token)
        pos = match.end()
    return tokens


def _split_operands(text: str) -> list[str]:
    """Split an operand list on top-level commas."""
    parts: list[str] = []
    depth = 0
    current = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


_MEM_OPERAND_RE = re.compile(r"^(?P<off>.*?)\s*\(\s*(?P<reg>\w+)\s*\)$")


class Assembler:
    """Assembles one or more sources into a :class:`ProgramImage`.

    The assembler keeps a single symbol namespace across all added
    sources (the builder of the paper links all application phases into
    one image), performs bank placement according to the building
    directives, and encodes in a second pass once every label has an
    absolute address.
    """

    def __init__(self) -> None:
        self._sections: dict[str, _Section] = {}
        self._order: list[str] = []
        self._symbols: dict[str, tuple[str, int]] = {}  # label -> (sec, off)
        self._equs: dict[str, int] = {}
        self._entries: dict[int, tuple[str, int, str]] = {}
        self._dm_items: list[tuple[str, str, int, str]] = []
        self._dm_footprints: list[tuple[str, str, int]] = []
        self._current: _Section | None = None
        self._source_name = "<asm>"
        self._line = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def add_source(self, text: str, name: str = "<asm>") -> "Assembler":
        """Run pass 1 over ``text``; returns self for chaining."""
        self._source_name = name
        for lineno, raw in enumerate(text.splitlines(), start=1):
            self._line = lineno
            try:
                self._pass1_line(raw)
            except AssemblerError:
                raise
            except ValueError as exc:
                raise AssemblerError(str(exc), lineno, name) from exc
        return self

    def build(self) -> ProgramImage:
        """Place sections, resolve symbols and encode (pass 2)."""
        self._place_sections()
        image = ProgramImage()
        for name in self._order:
            section = self._sections[name]
            base = section.base
            bank = base // IM_WORDS_PER_BANK
            image.sections.append(
                SectionInfo(name=name, bank=bank, base=base,
                            size=section.size))
            for offset, word in enumerate(section.words):
                address = base + offset
                if isinstance(word, _Pending):
                    try:
                        value = word.build(self._resolve_symbol)
                    except ValueError as exc:
                        raise AssemblerError(
                            str(exc), word.line, word.source) from exc
                else:
                    value = word
                if address in image.im:
                    raise LinkError(
                        f"IM address {address:#06x} assigned twice "
                        f"(section {name!r})")
                image.im[address] = value

        for name, (sec_name, offset) in self._symbols.items():
            image.symbols[name] = self._sections[sec_name].base + offset
        image.symbols.update(self._equs)

        for source, addr_expr, line, values_text in self._dm_items:
            address = self._eval(addr_expr, line, source)
            for value_expr in _split_operands(values_text):
                value = self._eval(value_expr, line, source) & 0xFFFF
                if address in image.dm_init:
                    raise LinkError(
                        f"DM address {address:#06x} initialized twice")
                image.dm_init[address] = value
                address += 1

        for core, (label, line, source) in self._entries.items():
            image.entries[core] = self._eval(label, line, source)

        for source, expr, line in self._dm_footprints:
            image.dm_footprint = max(image.dm_footprint,
                                     self._eval(expr, line, source))

        if not image.entries and image.im:
            main = image.symbols.get("main")
            image.entries[0] = main if main is not None else min(image.im)
        return image

    # ------------------------------------------------------------------
    # Pass 1
    # ------------------------------------------------------------------

    def _pass1_line(self, raw: str) -> None:
        line = raw.split(";", 1)[0].split("#", 1)[0].rstrip()
        while True:
            match = _LABEL_RE.match(line)
            if match is None:
                break
            self._define_label(match.group(1))
            line = line[match.end():]
        line = line.strip()
        if not line:
            return
        if line.startswith("."):
            self._directive(line)
        else:
            self._instruction(line)

    def _section_for_code(self) -> _Section:
        if self._current is None:
            self._open_section("text")
        assert self._current is not None
        return self._current

    def _open_section(self, name: str, bank: int | None = None,
                      org: int | None = None) -> None:
        section = self._sections.get(name)
        if section is None:
            section = _Section(name=name)
            self._sections[name] = section
            self._order.append(name)
        if bank is not None:
            if section.words and section.bank not in (None, bank):
                raise AssemblerError(
                    f"section {name!r} re-banked after emitting code",
                    self._line, self._source_name)
            section.bank = bank
        if org is not None:
            if section.words:
                raise AssemblerError(
                    f"section {name!r} given org after emitting code",
                    self._line, self._source_name)
            section.org = org
        self._current = section

    def _define_label(self, name: str) -> None:
        if name in self._symbols or name in self._equs:
            raise AssemblerError(f"duplicate symbol {name!r}",
                                 self._line, self._source_name)
        section = self._section_for_code()
        self._symbols[name] = (section.name, section.size)

    def _directive(self, line: str) -> None:
        parts = line.split(None, 1)
        name = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".section":
            self._directive_section(rest)
        elif name == ".bank":
            value = self._eval_now(rest)
            self._open_section(self._section_for_code().name, bank=value)
        elif name == ".org":
            value = self._eval_now(rest)
            self._open_section(self._section_for_code().name, org=value)
        elif name == ".align":
            value = self._eval_now(rest)
            if value <= 0:
                raise AssemblerError(".align needs a positive argument",
                                     self._line, self._source_name)
            section = self._section_for_code()
            while section.size % value:
                section.words.append(encode(Instruction(Op.NOP)))
        elif name == ".word":
            section = self._section_for_code()
            for expr in _split_operands(rest):
                section.words.append(self._pending_word(expr))
        elif name == ".equ":
            operands = _split_operands(rest)
            if len(operands) != 2:
                raise AssemblerError(".equ needs NAME, VALUE",
                                     self._line, self._source_name)
            symbol = operands[0]
            if symbol in self._symbols or symbol in self._equs:
                raise AssemblerError(f"duplicate symbol {symbol!r}",
                                     self._line, self._source_name)
            self._equs[symbol] = self._eval_now(operands[1])
        elif name == ".dm":
            operands = _split_operands(rest)
            if len(operands) < 2:
                raise AssemblerError(".dm needs ADDR, VALUE[, ...]",
                                     self._line, self._source_name)
            self._dm_items.append(
                (self._source_name, operands[0], self._line,
                 ", ".join(operands[1:])))
        elif name == ".dmfootprint":
            self._dm_footprints.append(
                (self._source_name, rest, self._line))
        elif name == ".entry":
            operands = _split_operands(rest)
            if len(operands) != 2:
                raise AssemblerError(".entry needs CORE, LABEL",
                                     self._line, self._source_name)
            core = self._eval_now(operands[0])
            if core in self._entries:
                raise AssemblerError(f"core {core} already has an entry",
                                     self._line, self._source_name)
            self._entries[core] = (operands[1], self._line, self._source_name)
        elif name == ".global":
            pass  # single namespace; accepted for source compatibility
        else:
            raise AssemblerError(f"unknown directive {name!r}",
                                 self._line, self._source_name)

    def _directive_section(self, rest: str) -> None:
        tokens = rest.replace(",", " ").split()
        if not tokens:
            raise AssemblerError(".section needs a name",
                                 self._line, self._source_name)
        name = tokens[0]
        bank: int | None = None
        org: int | None = None
        for token in tokens[1:]:
            if "=" not in token:
                raise AssemblerError(
                    f"bad .section attribute {token!r} (want key=value)",
                    self._line, self._source_name)
            key, value_text = token.split("=", 1)
            value = self._eval_now(value_text)
            if key == "bank":
                bank = value
            elif key == "org":
                org = value
            else:
                raise AssemblerError(f"unknown .section attribute {key!r}",
                                     self._line, self._source_name)
        self._open_section(name, bank=bank, org=org)

    # ------------------------------------------------------------------
    # Instructions
    # ------------------------------------------------------------------

    def _instruction(self, line: str) -> None:
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = _split_operands(operand_text) if operand_text else []
        section = self._section_for_code()
        emit = self._expand(mnemonic, operands)
        section.words.extend(emit)

    def _expand(self, mnemonic: str, ops: list[str]) -> list[object]:
        """Expand one statement into encoded or pending words."""
        if mnemonic == "li":
            return self._pseudo_li(ops)
        if mnemonic in _PSEUDO:
            count, real, operands = _PSEUDO[mnemonic]
            self._expect_pseudo(ops, count, mnemonic)
            return self._expand(real, [ops[o] if isinstance(o, int) else o
                                       for o in operands])
        info = MNEMONIC_TABLE.get(mnemonic)
        if info is None:
            raise AssemblerError(f"unknown mnemonic {mnemonic!r}",
                                 self._line, self._source_name)
        handler = {
            "R": self._emit_r, "I": self._emit_i, "S": self._emit_s,
            "B": self._emit_b, "J": self._emit_ju, "U": self._emit_ju,
            "Y": self._emit_y, "N": self._emit_n,
        }[info.fmt.value]
        return handler(info.op, ops)

    # -- real formats ---------------------------------------------------

    def _emit_r(self, op: Op, ops: list[str]) -> list[object]:
        self._expect(ops, 3, op)
        rd, ra, rb = (self._reg(o) for o in ops)
        return [encode(Instruction(op, rd=rd, ra=ra, rb=rb))]

    def _emit_i(self, op: Op, ops: list[str]) -> list[object]:
        if op is Op.LW:
            self._expect(ops, 2, op)
            rd = self._reg(ops[0])
            base, offset = self._mem_operand(ops[1])
            return [self._pending_instr(
                lambda r, o=offset: Instruction(op, rd=rd, ra=base,
                                                imm=self._to_int(o, r)))]
        if op is Op.JALR and len(ops) == 2:
            ops = [*ops, "0"]
        self._expect(ops, 3, op)
        rd, ra = self._reg(ops[0]), self._reg(ops[1])
        return [self._pending_instr(
            lambda r, o=ops[2]: Instruction(op, rd=rd, ra=ra,
                                            imm=self._to_int(o, r)))]

    def _emit_s(self, op: Op, ops: list[str]) -> list[object]:
        self._expect(ops, 2, op)
        rb = self._reg(ops[0])
        base, offset = self._mem_operand(ops[1])
        return [self._pending_instr(
            lambda r, o=offset: Instruction(op, rb=rb, ra=base,
                                            imm=self._to_int(o, r)))]

    def _emit_b(self, op: Op, ops: list[str]) -> list[object]:
        self._expect(ops, 3, op)
        ra, rb = self._reg(ops[0]), self._reg(ops[1])
        section = self._section_for_code()
        pc = section.size  # offset of this instruction within the section
        sec_name = section.name

        def build(resolve, target=ops[2]) -> Instruction:
            absolute = self._to_int(target, resolve)
            here = self._sections[sec_name].base + pc
            return Instruction(op, ra=ra, rb=rb, imm=absolute - (here + 1))

        return [self._pending_instr(build)]

    def _emit_ju(self, op: Op, ops: list[str]) -> list[object]:
        self._expect(ops, 2, op)
        rd = self._reg(ops[0])
        return [self._pending_instr(
            lambda r, o=ops[1]: Instruction(op, rd=rd,
                                            imm=self._to_int(o, r)))]

    def _emit_y(self, op: Op, ops: list[str]) -> list[object]:
        self._expect(ops, 1, op)
        return [self._pending_instr(
            lambda r, o=ops[0]: Instruction(op, imm=self._to_int(o, r)))]

    def _emit_n(self, op: Op, ops: list[str]) -> list[object]:
        self._expect(ops, 0, op)
        return [encode(Instruction(op))]

    # -- pseudo-instructions ---------------------------------------------

    def _pseudo_li(self, ops: list[str]) -> list[object]:
        self._expect_pseudo(ops, 2, "li")
        rd = self._reg(ops[0])
        expr = ops[1]
        hi = self._pending_instr(
            lambda r: Instruction(Op.LUI, rd=rd,
                                  imm=(self._to_int(expr, r) >> 8) & 0xFF))
        lo = self._pending_instr(
            lambda r: Instruction(Op.ORI, rd=rd, ra=rd,
                                  imm=self._to_int(expr, r) & 0xFF))
        return [hi, lo]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _expect(self, ops: list[str], count: int, op: Op) -> None:
        if len(ops) != count:
            raise AssemblerError(
                f"{op.name.lower()} expects {count} operand(s), "
                f"got {len(ops)}", self._line, self._source_name)

    def _expect_pseudo(self, ops: list[str], count: int, name: str) -> None:
        if len(ops) != count:
            raise AssemblerError(
                f"{name} expects {count} operand(s), got {len(ops)}",
                self._line, self._source_name)

    def _reg(self, text: str) -> int:
        reg = REG_ALIASES.get(text.strip().lower())
        if reg is None:
            raise AssemblerError(f"unknown register {text!r}",
                                 self._line, self._source_name)
        return reg

    def _mem_operand(self, text: str) -> tuple[int, str]:
        match = _MEM_OPERAND_RE.match(text.strip())
        if match is None:
            raise AssemblerError(
                f"expected offset(reg) memory operand, got {text!r}",
                self._line, self._source_name)
        base = self._reg(match.group("reg"))
        offset = match.group("off").strip() or "0"
        return base, offset

    def _pending_instr(self, build) -> _Pending:
        return _Pending(
            build=lambda resolve: encode(build(resolve)),
            line=self._line, source=self._source_name)

    def _pending_word(self, expr: str) -> _Pending:
        return _Pending(
            build=lambda resolve: self._to_int(expr, resolve) & 0xFFFFFF,
            line=self._line, source=self._source_name)

    def _to_int(self, expr: str, resolve) -> int:
        return _ExprParser(_tokenize_expr(expr), resolve).parse()

    def _eval_now(self, expr: str) -> int:
        """Evaluate an expression that may only use .equ constants."""

        def resolve(name: str) -> int:
            if name in self._equs:
                return self._equs[name]
            raise ValueError(
                f"symbol {name!r} not usable here (only .equ constants)")

        return self._to_int(expr, resolve)

    def _eval(self, expr: str, line: int, source: str) -> int:
        try:
            return self._to_int(expr, self._resolve_symbol)
        except ValueError as exc:
            raise AssemblerError(str(exc), line, source) from exc

    def _resolve_symbol(self, name: str) -> int:
        if name in self._equs:
            return self._equs[name]
        location = self._symbols.get(name)
        if location is None:
            raise ValueError(f"undefined symbol {name!r}")
        sec_name, offset = location
        return self._sections[sec_name].base + offset

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _place_sections(self) -> None:
        cursors = {bank: 0 for bank in range(IM_BANKS)}
        placed: list[tuple[int, int, str]] = []  # (base, end, name)

        def reserve(base: int, size: int, name: str) -> None:
            end = base + size
            if end > IM_BANKS * IM_WORDS_PER_BANK:
                raise LinkError(
                    f"section {name!r} overflows instruction memory")
            first_bank = base // IM_WORDS_PER_BANK
            last_bank = max(base, end - 1) // IM_WORDS_PER_BANK
            if size and first_bank != last_bank:
                raise LinkError(
                    f"section {name!r} crosses an IM bank boundary "
                    f"({first_bank} -> {last_bank})")
            for other_base, other_end, other in placed:
                if base < other_end and other_base < end:
                    raise LinkError(
                        f"sections {name!r} and {other!r} overlap in IM")
            placed.append((base, end, name))
            cursors[first_bank] = max(
                cursors[first_bank], end - first_bank * IM_WORDS_PER_BANK)

        # Absolute sections first, then banked ones, then free ones.
        for name in self._order:
            section = self._sections[name]
            if section.org is not None:
                section.base = section.org
                reserve(section.base, section.size, name)
        for name in self._order:
            section = self._sections[name]
            if section.org is None and section.bank is not None:
                if not 0 <= section.bank < IM_BANKS:
                    raise LinkError(
                        f"section {name!r} placed in bank {section.bank}, "
                        f"but IM has {IM_BANKS} banks")
                start = cursors[section.bank]
                if start + section.size > IM_WORDS_PER_BANK:
                    raise LinkError(
                        f"section {name!r} does not fit in bank "
                        f"{section.bank}")
                section.base = section.bank * IM_WORDS_PER_BANK + start
                reserve(section.base, section.size, name)
        for name in self._order:
            section = self._sections[name]
            if section.org is None and section.bank is None:
                for bank in range(IM_BANKS):
                    start = cursors[bank]
                    if start + section.size <= IM_WORDS_PER_BANK:
                        section.base = bank * IM_WORDS_PER_BANK + start
                        reserve(section.base, section.size, name)
                        break
                else:
                    raise LinkError(
                        f"no IM bank has room for section {name!r}")


def assemble(source: str, name: str = "<asm>") -> ProgramImage:
    """Assemble a single source text into a :class:`ProgramImage`."""
    return Assembler().add_source(source, name).build()
