"""The cycle loop of ``repro.hw`` against its oracle, bit for bit.

``reference_system.py`` keeps the platform's per-cycle code as it was
before execution went through a handler table and crossbar arbitration
got its single-transaction shortcut.  Every run here goes through both
loops and must leave the same cycle count, core state and counters,
memory words and access counts, crossbar counters and round-robin
pointers, synchronizer counters, point words and event latches, and ADC
counters; a run that raises must raise the same exception at the same
cycle in both.  The inputs are the repository's kernels and random
multi-core programs.  The fast loop books idle cores' cycles lazily,
so it is also run in chunks of ``run(k)``, which must add up to one
``run``, and after every run the counters must satisfy the accounting
invariants of :func:`_check_accounting`.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.core.synchronizer import SyncProtocolError
from repro.hw.core import Effect, EffectKind, RiscCore, bind
from repro.hw.interconnect import Crossbar
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
    RESULT_BASE,
    barrier_pipeline_kernel,
    window_min_kernel,
)

from .reference_system import (
    GrantGroup,
    MemRequest,
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
        "latches": [sync.has_pending_event(core)
                    for core in range(sync.num_cores)],
        "adc": None if system.adc is None else [
            dataclasses.asdict(channel.stats)
            for channel in system.adc.channels],
    }


def _check_accounting(system: System, loaded_at: int) -> None:
    """Counters that must add up whenever a run has returned or raised."""
    for core in system.cores:
        stats = core.stats
        assert (stats.active_cycles + stats.gated_cycles
                + stats.halted_cycles) == system.cycle - loaded_at
        assert stats.instructions <= stats.active_cycles
    for xbar in (system.im_xbar, system.dm_xbar):
        stats = xbar.stats
        assert stats.grants + stats.conflicts == stats.requests
        assert stats.accesses + stats.broadcast_merged == stats.grants


def _run(cls, make, source: str, max_cycles: int, adc=None,
         chunk: int | None = None):
    """Load ``source`` and run ``max_cycles`` in one ``run``, or in
    ``run(chunk)`` calls until the system halts or the budget is spent.
    A call that runs more cycles than it was given fails at once.
    """
    system = make(cls)
    system.load(assemble(source))
    loaded_at = system.cycle
    if adc is not None:
        system.attach_adc(*adc)
    budget = max_cycles
    try:
        while budget > 0:
            cycles = min(budget, chunk or budget)
            ran = system.run(cycles)
            assert ran <= cycles, f"run({cycles}) ran {ran} cycles"
            _check_accounting(system, loaded_at)
            budget -= ran
            if ran < cycles:
                break
    except (SimulationError, SyncProtocolError, MemoryFault) as exc:
        _check_accounting(system, loaded_at)
        return (type(exc), str(exc), system.cycle), _state(system)
    return None, _state(system)


def run_both(make, source: str, max_cycles: int = 200_000, adc=None,
             chunks=()):
    """Run ``source`` through the fast loop and the oracle; compare.

    Each of ``chunks`` also runs the fast loop in ``run(chunk)`` calls,
    which must leave the same outcome.  Returns the fast loop's
    ``(error, state)``.
    """
    fast = _run(System, make, source, max_cycles, adc)
    reference = _run(ReferenceSystem, make, source, max_cycles, adc)
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]
    for chunk in chunks:
        assert _run(System, make, source, max_cycles, adc, chunk) == fast
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
    last IM word included: its ``jal`` links 0x8000): the call bound at
    ``pc`` does what the oracle's ``execute`` does."""
    outcomes = []
    for cls in (RiscCore, ReferenceCore):
        core = cls(3)
        core.regs, core.pc = [0, *regs], pc
        effect = (core.execute(instr) if cls is ReferenceCore
                  else bind(instr, pc)(core) or Effect(EffectKind.NONE))
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


_WORDS_PER_BANK = 6


def _transactions(requests, broadcast: bool) -> list:
    """One cycle's ``(port, bank, index, is_write, value)`` requests as
    crossbar transactions, grouped as ``System`` groups DM accesses:
    reads of one word merge while broadcasting, each write is its own."""
    masks = {}
    for port, bank, index, is_write, _ in requests:
        word = bank * _WORDS_PER_BANK + index
        key = (word, -1 if broadcast and not is_write else port)
        masks[key] = masks.get(key, 0) | 1 << port
    return [(word, ports) for (word, _), ports in masks.items()]


@settings(max_examples=300, deadline=None)
@given(st.lists(_REQUESTS, min_size=1, max_size=6), st.booleans())
def test_arbitrate_matches_reference(cycles, broadcast):
    """Per cycle: the same grants, in order, the same stalls, and the
    same counters and round-robin pointers."""
    fast = Crossbar(8, 4, broadcast=broadcast,
                    words_per_bank=_WORDS_PER_BANK)
    reference = ReferenceCrossbar(8, 4, broadcast=broadcast)
    for cycle in cycles:
        writes = {port: is_write for port, _, _, is_write, _ in cycle}
        granted, stalled = fast.arbitrate(_transactions(cycle, broadcast))
        result = reference.arbitrate([MemRequest(*spec) for spec in cycle])
        assert [(*divmod(word, _WORDS_PER_BANK),
                 writes[fast.port_sets[ports][0]], list(fast.port_sets[ports]))
                for word, ports in granted] == \
            [(group.bank, group.index, group.is_write,
              sorted(request.port for request in group.requests))
             for group in result.granted]
        assert stalled == sum(1 << request.port
                              for request in result.stalled)
        assert dataclasses.asdict(fast.stats) == \
            dataclasses.asdict(reference.stats)
        assert fast._rr_priority == reference._rr_priority


@pytest.mark.parametrize("ports", range(1, 9))
def test_pick_matches_reference(ports):
    """Every pointer and every non-empty mask: ``pick`` names the port
    of the group the oracle's round-robin grants when each port of the
    mask contends alone.  Contended (two or more ports), both move the
    pointer on by one; a lone port never contends, so the oracle leaves
    the pointer, and ``pick`` still moves it on by one."""
    for priority in range(ports):
        for mask in range(1, 1 << ports):
            fast = Crossbar(ports, 1)
            reference = ReferenceCrossbar(ports, 1)
            fast._rr_priority[0] = reference._rr_priority[0] = priority
            groups = [GrantGroup(0, port, False, [MemRequest(port, 0, port)])
                      for port in fast.port_sets[mask]]
            winner = reference._pick(0, groups)
            assert fast.pick(0, mask) == winner.requests[0].port
            moved = (priority + 1) % ports
            assert fast._rr_priority[0] == moved
            assert reference._rr_priority[0] == \
                (moved if len(groups) > 1 else priority)


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


def mac_kernel(taps: int) -> str:
    """Multiply-accumulate kernel (random-projection inner loop).

    One core computes a ``taps``-long dot product of two private
    vectors and stores the low word at ``RESULT_BASE``.
    """
    return f"""
; MAC characterisation kernel ({taps} taps)
.equ A, 0
.equ B, {taps}
.equ RESULT, {RESULT_BASE:#x}
.equ N, {taps}
.dmfootprint RESULT

main:
    ; fill a[i] = i + 1, b[i] = 2*i + 1
    addi r1, zero, 0
initloop:
    addi r2, r1, 1
    addi r4, zero, A
    add  r4, r4, r1
    sw   r2, 0(r4)
    slli r2, r1, 1
    addi r2, r2, 1
    addi r4, zero, B
    add  r4, r4, r1
    sw   r2, 0(r4)
    addi r1, r1, 1
    li   r2, N
    blt  r1, r2, initloop
    ; dot product
    addi r1, zero, 0        ; index
    addi r3, zero, 0        ; accumulator
macloop:
    addi r4, zero, A
    add  r4, r4, r1
    lw   r2, 0(r4)
    addi r4, zero, B
    add  r4, r4, r1
    lw   r5, 0(r4)
    mul  r2, r2, r5
    add  r3, r3, r2
    addi r1, r1, 1
    li   r2, N
    blt  r1, r2, macloop
    li   r4, RESULT
    sw   r3, 0(r4)
    halt
"""


def test_mac():
    error, _ = run_both(_singlecore, mac_kernel(taps=12))
    assert error is None
    system = System.singlecore()
    system.load(assemble(mac_kernel(taps=48)))
    system.run(10_000)
    assert system.all_halted
    assert system.dm_peek(RESULT_BASE) == \
        sum((i + 1) * (2 * i + 1) for i in range(48)) & 0xFFFF


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


def _two_banks(cores: int) -> str:
    """Cores in pairs, the even ones in IM bank 0 and the odd ones in
    bank 1, spinning for a count set by their id: the two banks are
    fetched in the same cycles, and each bank's pair parts ways."""
    entries = "".join(f".entry {core}, {'alt' if core % 2 else 'main'}\n"
                      for core in range(cores))
    spin = [f"li r5, {REG_CORE_ID}", "lw r6, 0(r5)", "addi r1, r6, 3",
            "{0}loop:", "addi r1, r1, -1", "bnez r1, {0}loop", "halt"]
    return (entries + "main:\n" + "\n".join(spin).format("main")
            + "\n.section alt, bank=1\nalt:\n"
            + "\n".join(spin).format("alt") + "\n")


@pytest.mark.parametrize("broadcast", [True, False])
@pytest.mark.parametrize("cores", [2, 4])
def test_fetches_in_two_banks(cores, broadcast):
    """Cores fetching from IM banks 0 and 1 in the same cycles take the
    route to ``Crossbar.arbitrate``, and the loop agrees with the oracle
    there, in one ``run`` and in ``run(1)`` chunks."""
    error, state = run_both(_multicore(8, broadcast), _two_banks(cores),
                            chunks=(1,))
    assert error is None
    im_reads = [reads for _, reads, _ in state["banks"][:2]]
    assert all(im_reads)


def test_deadlock_names_point_and_cores():
    """Window-min on three replicas whose core 2 halts where it should
    ``sdec``: the error names point 0, the cores registered there and
    which are gated or halted, at the cycle it happens."""
    source = window_min_kernel(cores=3, window=8, outputs=64).replace(
        "sdec SP\n    sleep",
        "li r5, 2\n    bne r6, r5, go\n    halt\ngo:\n    sdec SP\n"
        "    sleep")
    error, _ = run_both(_multicore(), source)
    assert error == (
        SimulationError,
        "deadlock: all cores clock-gated with no event source; point 0 "
        "(counter 1): core 0 gated, core 1 gated, core 2 halted", 940)


_CHUNKS = (1, 7, 97)


@pytest.mark.parametrize("make, source", [
    (_multicore(), window_min_kernel(cores=3, window=4, outputs=5)),
    (_multicore(), window_min_kernel(cores=8, window=6, outputs=4,
                                     with_sync=False)),
    (_multicore(broadcast=False),
     window_min_kernel(cores=4, window=6, outputs=4)),
    (_multicore(), barrier_pipeline_kernel(3, 9)),
    (_singlecore, mac_kernel(taps=12)),
    (_multicore(), ".entry 0, main\n.entry 1, main\nmain:\n    sleep\n"
     "    halt\n"),
], ids=["window-min", "window-min-unsynced", "window-min-serial",
        "barrier", "mac", "deadlock"])
def test_chunked_kernels(make, source):
    """``run(k)`` repeated until halt leaves what one ``run`` leaves."""
    run_both(make, source, chunks=_CHUNKS)


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


def _handoff(point: int):
    """Core 0 registers at ``point`` and sleeps; core 1, which never
    registers there, releases it with a bare ``sdec``."""
    return lambda label: [
        "li r3, 0", f"bne r6, r3, {label}other", f"sinc {point}", "sleep",
        f"j {label}end", f"{label}other:", "li r3, 1",
        f"bne r6, r3, {label}end", f"sdec {point}", f"{label}end:"]


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
    st.builds(_handoff, st.integers(0, 2)),
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


# Without the explain phase, which reruns both loops for every
# candidate, a failing program is reported in tens of seconds.
_SETTINGS = settings(max_examples=100, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow],
                     phases=[phase for phase in Phase
                             if phase is not Phase.explain])


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


_STREAMS = st.lists(st.lists(st.integers(0, 0xFFFF), max_size=6),
                   min_size=3, max_size=3)


@_SETTINGS
@given(programs(adc=True), _STREAMS, st.integers(3, 40))
def test_random_programs_with_adc(program, streams, period):
    run_both(_multicore(), program, max_cycles=1500,
             adc=(streams, period))


_CHUNKED = settings(_SETTINGS, max_examples=50)


@_CHUNKED
@given(st.sampled_from((2, 8)).flatmap(
    lambda size: st.tuples(st.just(size), programs(max_cores=size))),
    st.booleans(), st.sampled_from(_CHUNKS))
def test_chunked_random_programs(sized, broadcast, chunk):
    size, source = sized
    run_both(_multicore(size, broadcast), source, max_cycles=1500,
             chunks=(chunk,))


@_CHUNKED
@given(programs(adc=True), _STREAMS, st.integers(3, 40),
       st.sampled_from(_CHUNKS))
def test_chunked_random_programs_with_adc(program, streams, period, chunk):
    run_both(_multicore(), program, max_cycles=1500,
             adc=(streams, period), chunks=(chunk,))
