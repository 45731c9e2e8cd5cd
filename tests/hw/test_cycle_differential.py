"""The cycle loop of ``repro.hw`` against its oracle, bit for bit.

``reference_system.py`` keeps the platform's per-cycle code as it was
before execution went through a handler table and crossbar arbitration
got its single-transaction shortcut.  Every run here goes through both
loops and must leave the same cycle count, core state and counters,
memory words and access counts, crossbar counters and round-robin
pointers, synchronizer counters and point words, and ADC counters; a
run that raises must raise the same exception at the same cycle in
both.  The inputs are the repository's kernels and random multi-core
programs.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.syncpoint import SyncProtocolError
from repro.hw.core import RiscCore
from repro.hw.interconnect import Crossbar, MemRequest
from repro.hw.memory import MemoryFault
from repro.hw.system import SimulationError, System
from repro.isa.assembler import assemble
from repro.isa.encoding import decode
from repro.isa.layout import (
    REG_ADC_CTRL,
    REG_ADC_DATA0,
    REG_ADC_STATUS,
    REG_CORE_ID,
    REG_CYCLE_HI,
    REG_CYCLE_LO,
    REG_INT_STATUS,
    REG_INT_SUBSCRIBE,
)
from repro.isa.spec import Op
from repro.kernels.sources import (
    barrier_pipeline_kernel,
    mac_kernel,
    window_min_kernel,
)

from .reference_system import (
    ReferenceCore,
    ReferenceCrossbar,
    ReferenceSystem,
)


def _state(system: System) -> dict:
    """Everything the two loops must agree on after a run."""
    sync = system.synchronizer
    return {
        "cycle": system.cycle,
        "cores": [(dataclasses.asdict(core.stats), list(core.regs), core.pc,
                   core.halted, core.gated) for core in system.cores],
        "banks": [(bank.data, bank.reads, bank.writes)
                  for memory in (system.im, system.dm)
                  for bank in memory.banks],
        "crossbars": [(dataclasses.asdict(xbar.stats),
                       list(xbar._rr_priority))
                      for xbar in (system.im_xbar, system.dm_xbar)],
        "sync": (dataclasses.asdict(sync.stats),
                 [system.dm_peek(sync.point_address(point))
                  for point in range(sync.num_points)]),
        "adc": None if system.adc is None else [
            dataclasses.asdict(channel.stats)
            for channel in system.adc.channels],
    }


def _run(cls, make, source: str, max_cycles: int, adc=None):
    system = make(cls)
    system.load(assemble(source))
    if adc is not None:
        system.attach_adc(*adc)
    try:
        system.run(max_cycles)
    except (SimulationError, SyncProtocolError, MemoryFault) as exc:
        return (type(exc), str(exc), system.cycle), _state(system)
    return None, _state(system)


def run_both(make, source: str, max_cycles: int = 200_000, adc=None):
    """Run ``source`` through the fast loop and the oracle; compare.

    Returns the fast loop's ``(error, state)``.
    """
    fast = _run(System, make, source, max_cycles, adc)
    reference = _run(ReferenceSystem, make, source, max_cycles, adc)
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]
    return fast


def _multicore(cores: int = 8, broadcast: bool = True):
    return lambda cls: cls.multicore(num_cores=cores, broadcast=broadcast)


def _singlecore(cls):
    return cls.singlecore()


# ----------------------------------------------------------------------
# One instruction, one arbitration
# ----------------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(st.builds(lambda op, fields: decode(op << 18 | fields),
                 st.sampled_from(Op), st.integers(0, (1 << 18) - 1)),
       st.lists(st.integers(0, 0xFFFF), min_size=7, max_size=7),
       st.one_of(st.integers(0, 0x7FFF), st.just(0x7FFF)))
def test_execute_matches_reference(instr, regs, pc):
    """Every opcode with any fields, any register state, any ``pc`` (the
    last IM word included: its ``jal`` links 0x8000)."""
    outcomes = []
    for cls in (RiscCore, ReferenceCore):
        core = cls(3)
        core.regs, core.pc = [0, *regs], pc
        effect = core.execute(instr)
        outcomes.append((
            [getattr(effect, name) for name in
             ("kind", "address", "value", "rd", "sync_op", "sync_point")],
            core.regs, core.pc, core.busy_cycles_left,
            dataclasses.asdict(core.stats)))
    assert outcomes[0] == outcomes[1]


_REQUESTS = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 3), st.integers(0, 5),
              st.booleans(), st.integers(0, 0xFFFF)),
    max_size=8, unique_by=lambda request: request[0])


@settings(max_examples=300, deadline=None)
@given(st.lists(_REQUESTS, min_size=1, max_size=6), st.booleans())
def test_arbitrate_matches_reference(cycles, broadcast):
    """Per cycle: the same grants, in order, the same stalls, in order,
    and the same counters and round-robin pointers."""
    fast = Crossbar(8, 4, broadcast=broadcast)
    reference = ReferenceCrossbar(8, 4, broadcast=broadcast)
    for cycle in cycles:
        outcomes = []
        for xbar in (fast, reference):
            result = xbar.arbitrate([MemRequest(*spec) for spec in cycle])
            outcomes.append((
                [(group.bank, group.index, group.is_write,
                  [request.port for request in group.requests])
                 for group in result.granted],
                [request.port for request in result.stalled],
                dataclasses.asdict(xbar.stats), list(xbar._rr_priority)))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Fixed kernels
# ----------------------------------------------------------------------


@pytest.mark.parametrize("with_sync", [True, False])
@pytest.mark.parametrize("window", [2, 4, 16])
@pytest.mark.parametrize("cores", [1, 2, 3, 6, 8])
def test_window_min(cores, window, with_sync):
    error, state = run_both(_multicore(), window_min_kernel(
        cores=cores, window=window, outputs=5, with_sync=with_sync))
    assert error is None
    assert all(halted for *_, halted, _ in state["cores"])


@pytest.mark.parametrize("rounds", [1, 9])
@pytest.mark.parametrize("producers", [1, 3, 7])
def test_barrier_pipeline(producers, rounds):
    error, state = run_both(_multicore(),
                            barrier_pipeline_kernel(producers, rounds))
    assert error is None
    assert state["sync"][0]["point_fires"] > 0


def test_mac():
    error, _ = run_both(_singlecore, mac_kernel(taps=12))
    assert error is None


_SPIN = """
main:
    li   r1, 40
loop:
    addi r1, r1, -1
    bnez r1, loop
    halt
"""


@pytest.mark.parametrize("cores", [1, 2, 4, 8])
def test_spin(cores):
    entries = "".join(f".entry {core}, main\n" for core in range(cores))
    make = _singlecore if cores == 1 else _multicore(cores)
    error, _ = run_both(make, entries + _SPIN)
    assert error is None


def test_window_min_without_broadcast():
    error, state = run_both(_multicore(broadcast=False),
                            window_min_kernel(cores=4, window=6, outputs=4))
    assert error is None
    assert state["crossbars"][0][0]["broadcast_merged"] == 0
    assert state["crossbars"][0][0]["conflicts"] > 0


@pytest.mark.parametrize("source, error", [
    (".entry 0, main\n.entry 1, main\nmain:\n    sleep\n    halt\n",
     "deadlock"),
    (".entry 0, main\nmain:\n    sdec 3\n    halt\n", "underflow"),
    (".entry 0, main\nmain:\n    li r4, 0x5000\n    lw r1, 0(r4)\n"
     "    halt\n", "unmapped"),
    (".entry 0, main\nmain:\n    li r3, 0x100\n    jr r3\n",
     "uninitialised"),
    (".entry 0, main\nmain:\n    li r3, 0x1000\n    jr r3\n",
     "powered off"),
])
def test_errors_match(source, error):
    outcome, _ = run_both(_multicore(), source, max_cycles=100)
    assert outcome is not None and error in outcome[1]


# ----------------------------------------------------------------------
# Random multi-core programs
# ----------------------------------------------------------------------

_SHARED = 0x800
_R_OPS = ("add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt",
          "sltu", "mul", "mulh")
_I_OPS = ("addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
# r6 holds the core id, r5 counts loops, r7 is the link register.
_DST = st.sampled_from(("r1", "r2", "r3", "r4"))
_SRC = st.sampled_from(("r0", "r1", "r2", "r3", "r4", "r5", "r6"))

# A block is a list of lines, or a function of a unique label prefix
# returning one (blocks that branch).

_ALU = st.one_of(
    st.builds("{} {}, {}, {}".format, st.sampled_from(_R_OPS), _DST, _SRC,
              _SRC),
    st.builds("{} {}, {}, {}".format, st.sampled_from(_I_OPS), _DST, _SRC,
              st.integers(-2048, 2047)),
    st.builds("lui {}, {}".format, _DST, st.integers(0, 255)),
).map(lambda line: [line])

# Addresses in r4: a private word, one shared word for every core (a
# broadcast read), a shared word per core in consecutive banks, one
# per core in a single bank (a conflict), or a sync point.
_ADDRESS = st.one_of(
    st.integers(0, 40).map(lambda a: [f"li r4, {a}"]),
    st.integers(_SHARED, _SHARED + 40).map(lambda a: [f"li r4, {a}"]),
    st.integers(_SHARED, _SHARED + 40).map(
        lambda a: [f"li r4, {a}", "add r4, r4, r6"]),
    st.integers(_SHARED, _SHARED + 40).map(
        lambda a: ["slli r4, r6, 4", f"li r3, {a}", "add r4, r4, r3"]),
    st.integers(0, 3).map(lambda p: [f"li r4, {0x4000 + p}"]),
)
_MEMORY = st.builds(
    lambda address, access: address + [access], _ADDRESS,
    st.one_of(st.builds("lw {}, {}(r4)".format, _DST, st.integers(0, 2)),
              st.builds("sw {}, {}(r4)".format, _SRC, st.integers(0, 2))))


def _read(register: int, rd: str) -> list[str]:
    return [f"li r4, {register}", f"lw {rd}, 0(r4)"]


def _write(register: int, value: int) -> list[str]:
    return [f"li r4, {register}", f"li r3, {value}", "sw r3, 0(r4)"]


_PERIPHERAL = st.builds(_read, st.sampled_from(
    (REG_CORE_ID, REG_CYCLE_LO, REG_CYCLE_HI, REG_INT_STATUS,
     REG_INT_SUBSCRIBE, REG_ADC_STATUS)), _DST)
_ADC = st.one_of(
    st.builds(_read, st.integers(REG_ADC_DATA0, REG_ADC_DATA0 + 2), _DST),
    st.builds(_write, st.just(REG_ADC_CTRL), st.integers(0, 7)),
    # Wait for a data-ready interrupt.
    st.integers(1, 7).map(lambda mask: _write(REG_INT_SUBSCRIBE, mask)
                          + ["sleep"]),
)
_STRAIGHT = st.one_of(_ALU, _ALU, _MEMORY, _PERIPHERAL)


def _flat(blocks) -> list[str]:
    return [line for block in blocks for line in block]


def _render(blocks, prefix: str) -> list[str]:
    return _flat(block(f"{prefix}{number}_") if callable(block) else block
                 for number, block in enumerate(blocks))


def _skip(branch: str, ra: str, rb: str, body):
    """A data-dependent forward branch around ``body``."""
    return lambda label: [f"{branch} {ra}, {rb}, {label}", *_flat(body),
                          f"{label}:"]


def _loop(count: int, body):
    return lambda label: [f"li r5, {count}", f"{label}:", *_flat(body),
                          "addi r5, r5, -1", f"bnez r5, {label}"]


def _region(point: int, blocks):
    """A lock-step region: whoever enters waits for the rest at the end."""
    return lambda label: [f"sinc {point}", *_render(blocks, label),
                          f"sdec {point}", "sleep"]


def _halt_if(core: int):
    return lambda label: [f"li r3, {core}", f"bne r6, r3, {label}", "halt",
                          f"{label}:"]


_BODY = st.lists(_STRAIGHT, min_size=1, max_size=3)
_SKIP = st.builds(_skip, st.sampled_from(_BRANCHES), _SRC, _SRC, _BODY)
_CONTROL = st.one_of(
    _SKIP,
    st.builds(_loop, st.integers(1, 5), _BODY),
    st.builds(_halt_if, st.integers(0, 7)),
    st.integers(0, 1).map(lambda sub: [f"call sub{sub}"]),
    st.integers(0, 1).map(lambda sub: [f"li r3, sub{sub}",
                                       "jalr r7, r3, 0"]),
)
_SYNC = st.one_of(
    st.builds(_region, st.integers(0, 2),
              st.lists(st.one_of(_STRAIGHT, _SKIP), min_size=1,
                       max_size=4)),
    # A consumer's wait: falls through unless the point is counting.
    st.integers(0, 2).map(lambda point: [f"snop {point}", "sleep"]),
)
# Blocks that may hang a core or raise.
_RISKY = st.one_of(
    st.builds("{} {}".format, st.sampled_from(("sinc", "sdec", "snop")),
              st.integers(0, 2)).map(lambda line: [line]),
    st.just(["sleep"]),
    _ADC,
    st.just(["li r4, 0x5000", "lw r1, 0(r4)"]),
    st.sampled_from((0x100, 0x1000)).map(
        lambda address: [f"li r3, {address}", "jr r3"]),
)


@st.composite
def programs(draw, max_cores: int = 8, adc: bool = False) -> str:
    """A random program entered by 1 to ``max_cores`` cores.

    Every core reads its id into r6, then runs ``main`` or ``alt`` (the
    latter maybe in another IM bank) to a ``halt``.  Loops are bounded
    and branches jump forward, so only the risky blocks (stray sync
    instructions and sleeps, faults, waits for an ADC that is not
    there) can hang a core or raise.
    """
    blocks = [_ALU, _MEMORY, _MEMORY, _PERIPHERAL, _CONTROL, _CONTROL,
              _SYNC, _SYNC] + [_ADC] * adc
    block = st.one_of(*blocks)
    cores = draw(st.integers(1, max_cores))
    entries = [draw(st.sampled_from(("main", "main", "main", "alt")))
               for _ in range(cores)]
    main = draw(st.lists(block, min_size=1, max_size=16))
    alt = draw(st.lists(block, max_size=8))
    if draw(st.integers(0, 2)) == 0:  # a third of the programs
        main.insert(draw(st.integers(0, len(main))), draw(_RISKY))
    alt_bank = draw(st.integers(0, 1))
    source = [f".entry {core}, {label}"
              for core, label in enumerate(entries)]
    source += [".dmfootprint 0x4040"] if draw(st.booleans()) else []
    for label, section in (("main", main), ("alt", alt)):
        if label == "alt":
            source.append(f".section alt, bank={alt_bank}")
        source += [f"{label}:", f"li r6, {REG_CORE_ID}", "lw r6, 0(r6)",
                   *_render(section, f"{label}_"), "halt"]
    for number in range(2):
        source += [f"sub{number}:", *_flat(draw(_BODY)), "ret"]
    return "\n".join(source) + "\n"


_SETTINGS = settings(max_examples=100, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(st.sampled_from((2, 4, 8)).flatmap(
    lambda size: st.tuples(st.just(size), programs(max_cores=size))),
    st.booleans())
def test_random_programs_multicore(sized, broadcast):
    size, source = sized
    run_both(_multicore(size, broadcast), source, max_cycles=1500)


@_SETTINGS
@given(programs(max_cores=1))
def test_random_programs_singlecore(program):
    run_both(_singlecore, program, max_cycles=1500)


@_SETTINGS
@given(programs(adc=True),
       st.lists(st.lists(st.integers(0, 0xFFFF), max_size=6), min_size=3,
                max_size=3),
       st.integers(3, 40))
def test_random_programs_with_adc(program, streams, period):
    run_both(_multicore(), program, max_cycles=1500,
             adc=(streams, period))
