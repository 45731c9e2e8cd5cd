"""The cycle loop of ``repro.hw`` as it was before the fast path.

The differential oracle of ``test_cycle_differential.py``: the per-cycle
code of the platform from before execution went through a handler
table and crossbar arbitration got its single-transaction shortcut,
kept verbatim so the loop in ``src/`` can be held to it bit for bit:

* the core's ``execute`` as one ``if``/``elif`` chain over the opcodes,
  with its ``read_reg``/``write_reg``/``_take_branch`` helpers;
* ``Crossbar.arbitrate``, ``_group`` and ``_pick``, which group
  requests by port list and round-robin every bank by distance from
  its pointer, and the frozen-dataclass records they build;
* the synchronizer's sync-point rule as it was before ``submit``
  folded each request into its point: one record per request, one
  merge per point, then decode, apply and encode; its ``end_cycle``
  has no early return;
* ``System.step``, ``_dispatch``, ``_serve_memory`` and ``run``, which
  test for "all halted" and for deadlock on every cycle; the deadlock
  message is built from the point words by the oracle's own reading of
  the point layout;
* the ATU's translation, a private tag plus a shared interleave (or the
  single-core baseline's linear map), computed anew for every DM
  access, the synchronizer's included.

Everything else (loading, peripherals, memories, the unit's event
latches and interrupts) is shared with ``src/``: :class:`ReferenceSystem`
swaps only the cycle loop, the translation and the sync-point rule in.
It is slow and exists for tests only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.synchronizer import SyncOp, SyncProtocolError, Synchronizer
from repro.hw.core import EffectKind, RiscCore
from repro.hw.interconnect import Crossbar
from repro.hw.memory import BankedMemory, MemoryFault
from repro.hw.system import SimulationError, System
from repro.isa.encoding import Instruction
from repro.isa.layout import (
    DM_BANKS,
    DM_WORDS_PER_BANK,
    IM_BANKS,
    IM_WORDS_PER_BANK,
    PERIPH_BASE,
    PRIVATE_WORDS,
    SHARED_BASE,
    SHARED_LIMIT,
)
from repro.isa.spec import DATA_BITS, WORD_MASK, Op, signed


@dataclass(frozen=True)
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


_NO_EFFECT = Effect(EffectKind.NONE)

_SYNC_OPS = {
    Op.SINC: SyncOp.SINC,
    Op.SDEC: SyncOp.SDEC,
    Op.SNOP: SyncOp.SNOP,
}


class ReferenceCore(RiscCore):
    """A core whose ``execute`` is the ``if``/``elif`` chain."""

    def read_reg(self, index: int) -> int:
        """Read a register (r0 reads as zero)."""
        return 0 if index == 0 else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        """Write a register (writes to r0 are discarded)."""
        if index != 0:
            self.regs[index] = value & WORD_MASK

    def execute(self, instr: Instruction) -> Effect:
        """Execute one fetched instruction; returns its platform effect.

        Updates ``pc`` and timing state.  For loads/stores the returned
        effect must be granted by the platform (possibly after stalls)
        before the core may fetch again.
        """
        self.stats.instructions += 1
        op = instr.op
        next_pc = self.pc + 1
        effect = _NO_EFFECT

        if op is Op.ADD:
            self.write_reg(instr.rd,
                           self.read_reg(instr.ra) + self.read_reg(instr.rb))
        elif op is Op.SUB:
            self.write_reg(instr.rd,
                           self.read_reg(instr.ra) - self.read_reg(instr.rb))
        elif op is Op.AND:
            self.write_reg(instr.rd,
                           self.read_reg(instr.ra) & self.read_reg(instr.rb))
        elif op is Op.OR:
            self.write_reg(instr.rd,
                           self.read_reg(instr.ra) | self.read_reg(instr.rb))
        elif op is Op.XOR:
            self.write_reg(instr.rd,
                           self.read_reg(instr.ra) ^ self.read_reg(instr.rb))
        elif op is Op.SLL:
            shift = self.read_reg(instr.rb) & 0xF
            self.write_reg(instr.rd, self.read_reg(instr.ra) << shift)
        elif op is Op.SRL:
            shift = self.read_reg(instr.rb) & 0xF
            self.write_reg(instr.rd, self.read_reg(instr.ra) >> shift)
        elif op is Op.SRA:
            shift = self.read_reg(instr.rb) & 0xF
            self.write_reg(instr.rd,
                           signed(self.read_reg(instr.ra), DATA_BITS) >> shift)
        elif op is Op.SLT:
            self.write_reg(instr.rd,
                           int(signed(self.read_reg(instr.ra), DATA_BITS)
                               < signed(self.read_reg(instr.rb), DATA_BITS)))
        elif op is Op.SLTU:
            self.write_reg(instr.rd,
                           int(self.read_reg(instr.ra)
                               < self.read_reg(instr.rb)))
        elif op is Op.MUL:
            product = (signed(self.read_reg(instr.ra), DATA_BITS)
                       * signed(self.read_reg(instr.rb), DATA_BITS))
            self.write_reg(instr.rd, product)
            self.busy_cycles_left += 1
        elif op is Op.MULH:
            product = (signed(self.read_reg(instr.ra), DATA_BITS)
                       * signed(self.read_reg(instr.rb), DATA_BITS))
            self.write_reg(instr.rd, product >> 16)
            self.busy_cycles_left += 1
        elif op is Op.ADDI:
            self.write_reg(instr.rd, self.read_reg(instr.ra) + instr.imm)
        elif op is Op.ANDI:
            self.write_reg(instr.rd,
                           self.read_reg(instr.ra) & (instr.imm & WORD_MASK))
        elif op is Op.ORI:
            self.write_reg(instr.rd,
                           self.read_reg(instr.ra) | (instr.imm & WORD_MASK))
        elif op is Op.XORI:
            self.write_reg(instr.rd,
                           self.read_reg(instr.ra) ^ (instr.imm & WORD_MASK))
        elif op is Op.SLLI:
            self.write_reg(instr.rd,
                           self.read_reg(instr.ra) << (instr.imm & 0xF))
        elif op is Op.SRLI:
            self.write_reg(instr.rd,
                           self.read_reg(instr.ra) >> (instr.imm & 0xF))
        elif op is Op.SRAI:
            self.write_reg(instr.rd,
                           signed(self.read_reg(instr.ra), DATA_BITS)
                           >> (instr.imm & 0xF))
        elif op is Op.SLTI:
            self.write_reg(instr.rd,
                           int(signed(self.read_reg(instr.ra), DATA_BITS)
                               < instr.imm))
        elif op is Op.LUI:
            self.write_reg(instr.rd, (instr.imm & 0xFF) << 8)
        elif op is Op.LW:
            address = (self.read_reg(instr.ra) + instr.imm) & WORD_MASK
            effect = Effect(EffectKind.LOAD, address=address, rd=instr.rd)
            self.stats.loads += 1
        elif op is Op.SW:
            address = (self.read_reg(instr.ra) + instr.imm) & WORD_MASK
            effect = Effect(EffectKind.STORE, address=address,
                            value=self.read_reg(instr.rb))
            self.stats.stores += 1
        elif op is Op.BEQ:
            if self.read_reg(instr.ra) == self.read_reg(instr.rb):
                next_pc = self._take_branch(instr)
        elif op is Op.BNE:
            if self.read_reg(instr.ra) != self.read_reg(instr.rb):
                next_pc = self._take_branch(instr)
        elif op is Op.BLT:
            if (signed(self.read_reg(instr.ra), DATA_BITS)
                    < signed(self.read_reg(instr.rb), DATA_BITS)):
                next_pc = self._take_branch(instr)
        elif op is Op.BGE:
            if (signed(self.read_reg(instr.ra), DATA_BITS)
                    >= signed(self.read_reg(instr.rb), DATA_BITS)):
                next_pc = self._take_branch(instr)
        elif op is Op.BLTU:
            if self.read_reg(instr.ra) < self.read_reg(instr.rb):
                next_pc = self._take_branch(instr)
        elif op is Op.BGEU:
            if self.read_reg(instr.ra) >= self.read_reg(instr.rb):
                next_pc = self._take_branch(instr)
        elif op is Op.JAL:
            self.write_reg(instr.rd, self.pc + 1)
            next_pc = instr.imm
            self.busy_cycles_left += 1
            self.stats.taken_branches += 1
        elif op is Op.JALR:
            target = (self.read_reg(instr.ra) + instr.imm) & WORD_MASK
            self.write_reg(instr.rd, self.pc + 1)
            next_pc = target
            self.busy_cycles_left += 1
            self.stats.taken_branches += 1
        elif op in _SYNC_OPS:
            effect = Effect(EffectKind.SYNC, sync_op=_SYNC_OPS[op],
                            sync_point=instr.imm)
            self.stats.sync_issued += 1
        elif op is Op.SLEEP:
            effect = Effect(EffectKind.SLEEP)
            self.stats.sync_issued += 1
        elif op is Op.NOP:
            pass
        elif op is Op.HALT:
            effect = Effect(EffectKind.HALT)
        else:  # pragma: no cover - Op enum is exhaustive
            raise NotImplementedError(f"unimplemented opcode {op!r}")

        self.pc = next_pc & 0x7FFF
        return effect

    def _take_branch(self, instr: Instruction) -> int:
        """Compute a taken-branch target and charge the flush cycle."""
        self.busy_cycles_left += 1
        self.stats.taken_branches += 1
        return self.pc + 1 + instr.imm


@dataclass(frozen=True)
class MemRequest:
    """One port's request during one cycle.

    Attributes:
        port: requesting port (core id).
        bank: target bank number.
        index: word index within the bank.
        is_write: write transaction (writes never broadcast).
        value: data to store for writes.
    """

    port: int
    bank: int
    index: int
    is_write: bool = False
    value: int = 0


@dataclass
class GrantGroup:
    """All requests granted for one bank in one cycle.

    For reads, ``requests`` may hold several ports (a broadcast); for
    writes it always holds exactly one.
    """

    bank: int
    index: int
    is_write: bool
    requests: list[MemRequest]

    @property
    def broadcast_extra(self) -> int:
        """Requests served beyond the first (merged accesses)."""
        return len(self.requests) - 1


@dataclass
class ArbitrationResult:
    """Outcome of one cycle of crossbar arbitration.

    Attributes:
        granted: one :class:`GrantGroup` per bank that saw a grant.
        stalled: requests that lost arbitration and must retry.
    """

    granted: list[GrantGroup] = field(default_factory=list)
    stalled: list[MemRequest] = field(default_factory=list)


class ReferenceCrossbar(Crossbar):
    """A crossbar that groups and round-robins every bank."""

    def arbitrate(self, requests: list[MemRequest]) -> ArbitrationResult:
        """Resolve one cycle's worth of requests.

        Grant policy per bank: requests are grouped into transactions
        (same-address reads form one mergeable group when broadcasting
        is on; each write and, without broadcasting, each read is its
        own transaction).  The transaction containing the
        highest-priority port (round-robin) wins; everything else
        stalls.
        """
        result = ArbitrationResult()
        self.stats.requests += len(requests)
        by_bank: dict[int, list[MemRequest]] = {}
        for request in requests:
            if request.port >= self.ports:
                raise ValueError(
                    f"{self.name}: port {request.port} out of range")
            if request.bank >= self.num_banks:
                raise ValueError(
                    f"{self.name}: bank {request.bank} out of range")
            by_bank.setdefault(request.bank, []).append(request)

        merged_this_cycle = False
        for bank, bank_requests in by_bank.items():
            groups = self._group(bank_requests)
            winner = self._pick(bank, groups)
            for group in groups:
                if group is winner:
                    result.granted.append(group)
                    self.stats.grants += len(group.requests)
                    self.stats.accesses += 1
                    if group.broadcast_extra:
                        self.stats.broadcast_merged += group.broadcast_extra
                        merged_this_cycle = True
                else:
                    result.stalled.extend(group.requests)
                    self.stats.conflicts += len(group.requests)
        if merged_this_cycle:
            self.stats.broadcast_cycles += 1
        return result

    def _group(self, requests: list[MemRequest]) -> list[GrantGroup]:
        """Partition one bank's requests into candidate transactions."""
        groups: list[GrantGroup] = []
        read_groups: dict[int, GrantGroup] = {}
        for request in requests:
            if request.is_write or not self.broadcast:
                groups.append(GrantGroup(
                    bank=request.bank, index=request.index,
                    is_write=request.is_write, requests=[request]))
            else:
                group = read_groups.get(request.index)
                if group is None:
                    group = GrantGroup(
                        bank=request.bank, index=request.index,
                        is_write=False, requests=[])
                    read_groups[request.index] = group
                    groups.append(group)
                group.requests.append(request)
        return groups

    def _pick(self, bank: int, groups: list[GrantGroup]) -> GrantGroup:
        """Round-robin: grant the group containing the priority port."""
        if len(groups) == 1:
            return groups[0]
        priority = self._rr_priority[bank]
        best: GrantGroup | None = None
        best_distance = self.ports + 1
        for group in groups:
            distance = min((request.port - priority) % self.ports
                           for request in group.requests)
            if distance < best_distance:
                best_distance = distance
                best = group
        assert best is not None
        self._rr_priority[bank] = (priority + 1) % self.ports
        return best


@dataclass(frozen=True)
class SyncRequest:
    """One synchronization instruction issued by one core."""

    core: int
    op: SyncOp
    point: int


@dataclass(frozen=True)
class MergedUpdate:
    """The single consistent modification for one point and one cycle.

    Attributes:
        flag_mask: OR of the identification flags to set.
        counter_delta: net counter change (#SINC - #SDEC).
        requests: how many individual requests were merged.
    """

    flag_mask: int
    counter_delta: int
    requests: int


def _flag_bit(core: int) -> int:
    """Core ``core``'s identification flag (core 0 owns the MSB)."""
    return 1 << (15 - core)


def merge_requests(requests: list[SyncRequest]) -> MergedUpdate:
    """Reduce one point's same-cycle requests into a single update."""
    flag_mask = 0
    delta = 0
    for request in requests:
        if request.op is SyncOp.SINC:
            flag_mask |= _flag_bit(request.core)
            delta += 1
        elif request.op is SyncOp.SNOP:
            flag_mask |= _flag_bit(request.core)
        else:  # SDEC leaves the flags untouched
            delta -= 1
    return MergedUpdate(flag_mask=flag_mask, counter_delta=delta,
                        requests=len(requests))


def apply_update(num_cores: int, word: int,
                 update: MergedUpdate) -> tuple[int, tuple[int, ...]]:
    """Apply a merged update to a raw point word.

    Returns the new word and the cores woken: every flagged core if the
    point fired (counter zero with a flag set), which clears the flags.
    """
    counter_mask = (1 << (16 - num_cores)) - 1
    flags, counter = word & 0xFFFF & ~counter_mask, word & counter_mask
    flags |= update.flag_mask
    counter += update.counter_delta
    if counter < 0:
        raise SyncProtocolError(
            "sync point counter underflow (more SDECs than SINCs)")
    if counter > counter_mask:
        raise SyncProtocolError(
            f"sync point counter overflow (> {counter_mask})")
    woken: tuple[int, ...] = ()
    if counter == 0 and flags != 0 and update.requests > 0:
        woken = tuple(core for core in range(num_cores)
                      if flags & _flag_bit(core))
        flags = 0
    return flags | counter, woken


class ReferenceSynchronizer(Synchronizer):
    """The unit with the sync-point rule above in place of its own."""

    def _clear(self) -> None:
        super()._clear()
        self._requests: list[SyncRequest] = []

    def submit(self, core: int, op: SyncOp, point: int) -> None:
        """Record a SINC/SDEC/SNOP issued by ``core`` this cycle."""
        self._check_core(core)
        if not 0 <= point < self.num_points:
            raise ValueError(
                f"sync point {point} out of range [0, {self.num_points})")
        self.stats.op_counts[op.value] += 1
        self._requests.append(SyncRequest(core=core, op=op, point=point))

    def end_cycle(self) -> tuple[int, ...]:
        """Merge and apply this cycle's requests; returns resumed cores.

        Order of operations mirrors the hardware: (1) per-point merge
        and single memory modification, (2) zero-crossing detection and
        event generation, (3) interrupt forwarding.  Cores returned
        here were clock-gated and must resume on the next cycle.
        """
        woken: list[int] = []
        by_point: dict[int, list[SyncRequest]] = {}
        for request in self._requests:
            by_point.setdefault(request.point, []).append(request)
        self._requests.clear()

        for point in sorted(by_point):
            update = merge_requests(by_point[point])
            self.stats.merged_writes_saved += max(0, update.requests - 1)
            address = self.point_address(point)
            word, fired = apply_update(self.num_cores,
                                       self.storage.read(address), update)
            self.storage.write(address, word)
            if fired:
                self.stats.point_fires += 1
                for core in fired:
                    self._deliver(core, woken)

        for core in self.interrupts.collect():
            self._deliver(core, woken)

        self.stats.wakes += len(woken)
        return tuple(woken)


class ReferenceAtu:
    """The DM translation of Sec. IV-A, apart from ``repro.hw.atu``.

    Multi-core: core ``c``'s private address ``a`` lies in bank
    ``c * banks_per_core + a // private_slice`` at index
    ``a % private_slice`` (the core's tag), and shared offset ``s``
    in bank ``s % banks`` at index ``private_slice + s // banks``.
    Single-core: address ``a`` lies in bank ``a // DM_WORDS_PER_BANK``.
    """

    def __init__(self, num_cores: int, multicore: bool) -> None:
        self.multicore = multicore
        self.banks_per_core = DM_BANKS // num_cores
        self.private_slice = PRIVATE_WORDS // self.banks_per_core

    def translate(self, core: int, address: int) -> tuple[int, int]:
        """``(bank, index)`` of a non-peripheral ``address`` of ``core``."""
        if not self.multicore:
            if address >= DM_BANKS * DM_WORDS_PER_BANK:
                raise MemoryFault(
                    f"address {address:#06x} beyond physical DM")
            return (address // DM_WORDS_PER_BANK,
                    address % DM_WORDS_PER_BANK)
        if address < PRIVATE_WORDS:
            return (core * self.banks_per_core
                    + address // self.private_slice,
                    address % self.private_slice)
        if address < SHARED_LIMIT:
            offset = address - SHARED_BASE
            return (offset % DM_BANKS,
                    self.private_slice + offset // DM_BANKS)
        raise MemoryFault(
            f"core {core}: logical address {address:#06x} is unmapped "
            f"(shared section ends at {SHARED_LIMIT:#06x})")


class ReferenceSyncPort:
    """The synchronizer's DM port, translating every access anew."""

    def __init__(self, atu: ReferenceAtu, dm: BankedMemory) -> None:
        self.atu, self.dm = atu, dm

    def read(self, address: int) -> int:
        bank, index = self.atu.translate(0, address)
        return self.dm.banks[bank].read(index)

    def write(self, address: int, value: int) -> None:
        bank, index = self.atu.translate(0, address)
        self.dm.banks[bank].write(index, value)


@dataclass
class _Pending:
    """A memory effect waiting for a DM grant."""

    effect: Effect


class ReferenceSystem(System):
    """The platform with the cycle loop above swapped in."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cores = [ReferenceCore(core.core_id) for core in self.cores]
        self.im_xbar = ReferenceCrossbar(
            self.num_cores, IM_BANKS,
            broadcast=self.im_xbar.broadcast, name="im_xbar")
        self.dm_xbar = ReferenceCrossbar(
            self.num_cores, DM_BANKS,
            broadcast=self.dm_xbar.broadcast, name="dm_xbar")
        self.atu = ReferenceAtu(self.num_cores, self.multicore_dm)
        sync = self.synchronizer
        self.synchronizer = ReferenceSynchronizer(
            num_cores=sync.num_cores, num_points=sync.num_points,
            point_base=sync.point_base,
            storage=ReferenceSyncPort(self.atu, self.dm))

    def step(self) -> None:
        """Advance the platform by one clock cycle."""
        self.cycle += 1
        mem_queue: list[tuple[RiscCore, Effect]] = []
        fetch_requests: list[MemRequest] = []

        for core in self.cores:
            if core.halted:
                core.stats.halted_cycles += 1
                continue
            if core.gated:
                core.stats.gated_cycles += 1
                continue
            core.stats.active_cycles += 1
            if core.busy_cycles_left > 0:
                core.busy_cycles_left -= 1
                core.stats.busy_cycles += 1
                continue
            pending = self._pending[core.core_id]
            if pending is not None:
                mem_queue.append((core, pending.effect))
                continue
            fetch_requests.append(MemRequest(
                port=core.core_id, bank=core.pc // IM_WORDS_PER_BANK,
                index=core.pc % IM_WORDS_PER_BANK))

        fetch_result = self.im_xbar.arbitrate(fetch_requests)
        for request in fetch_result.stalled:
            self.cores[request.port].stats.fetch_stalls += 1
        for group in fetch_result.granted:
            self.im.banks[group.bank].read(group.index)
            address = group.bank * IM_WORDS_PER_BANK + group.index
            instr = self._decoded.get(address)
            if instr is None:
                raise SimulationError(
                    f"core {group.requests[0].port}: fetch from "
                    f"uninitialised IM address {address:#06x}")
            for request in group.requests:
                core = self.cores[request.port]
                effect = core.execute(instr)
                self._dispatch(core, effect, mem_queue)

        self._serve_memory(mem_queue)

        for core_id in self.synchronizer.end_cycle():
            self.cores[core_id].gated = False

        if self.adc is not None:
            self.adc.tick()

    def _dispatch(self, core: RiscCore, effect: Effect,
                  mem_queue: list[tuple[RiscCore, Effect]]) -> None:
        kind = effect.kind
        if kind is EffectKind.NONE:
            return
        if kind is EffectKind.HALT:
            core.halted = True
            return
        if kind is EffectKind.SYNC:
            assert effect.sync_op is not None
            self.synchronizer.submit(core.core_id, effect.sync_op,
                                     effect.sync_point)
            return
        if kind is EffectKind.SLEEP:
            if self.synchronizer.sleep(core.core_id):
                core.gated = True
            return
        # LOAD / STORE
        if effect.address >= PERIPH_BASE:
            self._peripheral_access(core, effect)
            return
        mem_queue.append((core, effect))

    def _serve_memory(self, mem_queue: list[tuple[RiscCore, Effect]]) -> None:
        if not mem_queue:
            return
        requests = []
        effects: dict[int, Effect] = {}
        for core, effect in mem_queue:
            bank, index = self.atu.translate(core.core_id, effect.address)
            effects[core.core_id] = effect
            requests.append(MemRequest(
                port=core.core_id, bank=bank, index=index,
                is_write=effect.kind is EffectKind.STORE,
                value=effect.value))
        result = self.dm_xbar.arbitrate(requests)
        for request in result.stalled:
            core = self.cores[request.port]
            core.stats.mem_stalls += 1
            self._pending[request.port] = _Pending(effects[request.port])
        for group in result.granted:
            if group.is_write:
                request = group.requests[0]
                self.dm.banks[group.bank].write(group.index, request.value)
                self._pending[request.port] = None
            else:
                value = self.dm.banks[group.bank].read(group.index)
                for request in group.requests:
                    core = self.cores[request.port]
                    core.complete_load(effects[request.port], value)
                    self._pending[request.port] = None

    def run(self, max_cycles: int) -> int:
        """Run up to ``max_cycles``, or until every core has halted;
        returns cycles actually simulated.

        Raises :class:`SimulationError` on deadlock (all cores gated
        with no wake source left).
        """
        start = self.cycle
        while self.cycle - start < max_cycles:
            if self.all_halted:
                break
            if self.deadlocked():
                raise SimulationError(self.deadlock_message())
            self.step()
        return self.cycle - start

    def deadlock_message(self) -> str:
        """Name every point whose word is not zero, with its flagged
        cores, gated or halted, or else the gated cores; each point word
        is peeked through the oracle's own translation."""
        counter_mask = (1 << (16 - self.num_cores)) - 1
        parts = []
        for point in range(self.synchronizer.num_points):
            bank, index = self.atu.translate(
                0, self.synchronizer.point_address(point))
            word = self.dm.banks[bank].peek(index)
            if word == 0:
                continue
            cores = [f"core {core} "
                     + ("halted" if self.cores[core].halted else "gated")
                     for core in range(self.num_cores)
                     if word & _flag_bit(core)]
            parts.append(f"point {point} (counter {word & counter_mask}): "
                         + (", ".join(cores) or "none registered"))
        if not parts:
            gated = [str(core.core_id) for core in self.cores if core.gated]
            parts = [f"cores {', '.join(gated)} gated"]
        return ("deadlock: all cores clock-gated with no event source; "
                + "; ".join(parts))
