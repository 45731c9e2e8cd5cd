"""Cycle-level WBSN platform: cores + memories + crossbars + synchronizer.

This module wires together the pieces of Fig. 2: parallel RISC cores,
multi-banked instruction and data memories behind broadcasting
crossbars, the synchronizer unit, per-core ATUs and the memory-mapped
ADC.  A :class:`System` advances in lock-step clock cycles:

1. clocked cores present instruction fetches, one transaction per
   word (a broadcast access); the IM crossbar arbitrates contention;
2. granted cores execute; loads/stores become DM transactions
   (same-address reads merge; bank conflicts stall the losers);
3. synchronization instructions go to the synchronizer, which merges
   same-point requests, updates the points in shared DM, clock-gates
   sleeping cores and wakes registered ones on counter zero-crossings;
4. the ADC ticks, possibly latching new samples and raising data-ready
   interrupt lines that the synchronizer forwards to subscribed cores.

The same class models the paper's two configurations:

* ``System.multicore(...)`` — 8 cores, ATU-split DM, crossbars;
* ``System.singlecore(...)`` — 1 core, linear DM decoding, no
  broadcast opportunities (a crossbar with one port degenerates to the
  baseline's decoder; the cost difference is the power model's job).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.synchronizer import Synchronizer, SynchronizerStats
from ..isa.encoding import Instruction, decode
from ..isa.errors import EncodingError, LoadError
from ..isa.layout import (
    DM_BANKS,
    DM_WORDS_PER_BANK,
    IM_BANKS,
    IM_WORDS_PER_BANK,
    IRQ_ADC_CH0,
    PERIPH_BASE,
    REG_ADC_CTRL,
    REG_ADC_DATA0,
    REG_ADC_STATUS,
    REG_CORE_ID,
    REG_CYCLE_HI,
    REG_CYCLE_LO,
    REG_INT_STATUS,
    REG_INT_SUBSCRIBE,
    SHARED_BASE,
    SYNC_POINT_BASE,
    SYNC_POINTS,
)
from ..isa.program import ProgramImage
from ..isa.spec import INSTR_MASK, WORD_MASK
from .adc import Adc
from .atu import MulticoreAtu, SingleCoreTranslation
from .core import Effect, EffectKind, RiscCore, bind
from .interconnect import Crossbar, CrossbarStats, Transaction
from .memory import BankedMemory, MemoryActivity, MemoryBank, MemoryFault


_LOAD, _STORE, _SYNC, _SLEEP = (
    EffectKind.LOAD, EffectKind.STORE, EffectKind.SYNC, EffectKind.SLEEP)


class SimulationError(Exception):
    """The simulation reached an illegal or dead state."""


@dataclass
class SystemActivity:
    """Everything the power model needs to know about a run.

    Attributes:
        cycles: simulated clock cycles.
        active_cores: cores that executed at least one instruction.
        core_active_cycles: per-core clocked (non-gated) cycles.
        core_gated_cycles: per-core clock-gated cycles.
        instructions: total instructions retired.
        sync_instructions: synchronization-ISE instructions retired.
        im: instruction memory activity.
        dm: data memory activity.
        im_xbar: instruction crossbar counters.
        dm_xbar: data crossbar counters.
        sync: synchronizer counters.
        adc_overruns: real-time violations (must be zero).
    """

    cycles: int
    active_cores: int
    core_active_cycles: list[int]
    core_gated_cycles: list[int]
    instructions: int
    sync_instructions: int
    im: MemoryActivity
    dm: MemoryActivity
    im_xbar: CrossbarStats
    dm_xbar: CrossbarStats
    sync: SynchronizerStats
    adc_overruns: int

    @property
    def im_broadcast_fraction(self) -> float:
        """Table I "IM Broadcast (%)" as a fraction."""
        return self.im_xbar.broadcast_fraction

    @property
    def dm_broadcast_fraction(self) -> float:
        """Table I "DM Broadcast (%)" as a fraction."""
        return self.dm_xbar.broadcast_fraction

    @property
    def runtime_overhead(self) -> float:
        """Table I "Run-time Overhead": sync instructions / instructions."""
        if self.instructions == 0:
            return 0.0
        return self.sync_instructions / self.instructions


class _SyncDmPort:
    """Synchronizer port into shared data memory.

    The synchronizer performs its merged sync-point modifications
    through a dedicated port; accesses are counted by the banks like
    any other DM traffic.  The bank and index of every point's address
    are tabled once, at construction, through the translation's shared
    path.  It holds no reference to the system, so a dropped system is
    freed at once.
    """

    def __init__(self, translation: MulticoreAtu | SingleCoreTranslation,
                 dm: BankedMemory, addresses: range) -> None:
        self._cells: dict[int, tuple[MemoryBank, int]] = {}
        for address in addresses:
            bank, index = translation.shared_location(address)
            self._cells[address] = dm.banks[bank], index

    def read(self, address: int) -> int:
        bank, index = self._cells[address]
        return bank.read(index)

    def write(self, address: int, value: int) -> None:
        bank, index = self._cells[address]
        bank.write(index, value)


class System:
    """The cycle-level platform (multi-core or single-core baseline)."""

    def __init__(self, num_cores: int, multicore_dm: bool = True,
                 broadcast: bool = True) -> None:
        self.num_cores = num_cores
        self.multicore_dm = multicore_dm
        self.cycle = 0
        self.cores = [RiscCore(core_id) for core_id in range(num_cores)]
        self.im = BankedMemory(IM_BANKS, IM_WORDS_PER_BANK, INSTR_MASK,
                               name="im")
        self.dm = BankedMemory(DM_BANKS, DM_WORDS_PER_BANK, WORD_MASK,
                               name="dm")
        self.im_xbar = Crossbar(num_cores, IM_BANKS, broadcast, "im_xbar",
                                IM_WORDS_PER_BANK)
        self.dm_xbar = Crossbar(num_cores, DM_BANKS, broadcast, "dm_xbar",
                                DM_WORDS_PER_BANK)
        if multicore_dm:
            self.translation: MulticoreAtu | SingleCoreTranslation = \
                MulticoreAtu(num_cores)
        else:
            self.translation = SingleCoreTranslation()
        self.synchronizer = Synchronizer(
            num_cores=num_cores, num_points=SYNC_POINTS,
            point_base=SYNC_POINT_BASE,
            storage=_SyncDmPort(self.translation, self.dm, range(
                SYNC_POINT_BASE, SYNC_POINT_BASE + SYNC_POINTS)))
        self.adc: Adc | None = None
        self._decoded: dict[int, Instruction] = {}
        # Per IM address: its bound instruction (``core.bind``), bank
        # and index in the bank.
        self._program: dict[int, tuple[Callable, MemoryBank, int]] = {}
        self._pending: list[Effect | None] = [None] * num_cores
        self._halted_at_load: set[int] = set(range(num_cores))
        # The cores neither halted nor gated, in id order, and the cycle
        # up to which each core's cycles are booked (see ``_book``).
        self._clocked = list(self.cores)
        self._since = [0] * num_cores

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def multicore(cls, num_cores: int = 8,
                  broadcast: bool = True) -> "System":
        """The paper's target system (Sec. IV-B)."""
        return cls(num_cores=num_cores, multicore_dm=True,
                   broadcast=broadcast)

    @classmethod
    def singlecore(cls) -> "System":
        """The paper's baseline system (Sec. IV-B)."""
        return cls(num_cores=1, multicore_dm=False, broadcast=False)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, image: ProgramImage,
             dm_banks_on: set[int] | None = None) -> None:
        """Load a program image and configure bank power.

        Args:
            image: assembled/linked program.
            dm_banks_on: DM banks to keep powered.  ``None`` keeps the
                platform default: *all* banks for the multi-core system
                (the ATU interleaves the shared section over every
                bank, Sec. V-A) or the smallest prefix covering the
                initialised data for the single-core baseline.
        """
        # Nothing of an earlier image survives.  The synchronizer resets
        # next: clearing the points writes into shared DM, which must
        # happen while all banks are still powered.
        for bank in self.im.banks + self.dm.banks:
            bank.data = [0] * bank.words
        self._decoded, self._program = {}, {}
        self.synchronizer.reset()
        used_im_banks: set[int] = set()
        for address, word in image.im.items():
            bank, index = divmod(address, IM_WORDS_PER_BANK)
            if bank >= IM_BANKS:
                raise LoadError(f"IM address {address:#06x} beyond memory")
            self.im.banks[bank].poke(index, word)
            used_im_banks.add(bank)
            try:
                instr = self._decoded[address] = decode(word)
            except EncodingError:
                continue  # raw data words are not executable
            self._program[address] = (bind(instr, address),
                                      self.im.banks[bank], index)
        self.im.power_off_unused(used_im_banks)

        for address, value in image.dm_init.items():
            if self.multicore_dm and address < SHARED_BASE:
                raise LoadError(
                    f".dm address {address:#06x} is core-private; only "
                    f"shared addresses can be statically initialised on "
                    f"the multi-core platform")
            bank, index = self.translation.shared_location(address)
            self.dm.banks[bank].poke(index, value)

        if dm_banks_on is None:
            if self.multicore_dm:
                dm_banks_on = set(range(DM_BANKS))
            else:
                translation = self.translation
                assert isinstance(translation, SingleCoreTranslation)
                dm_banks_on = translation.banks_for_footprint(
                    image.dm_highest_address())
        self.dm.power_off_unused(dm_banks_on)

        # Every core restarts, so nothing of an earlier image survives a
        # reload; a core the image does not enter stays halted.
        for core in self.cores:
            entry = image.entry_for(core.core_id)
            core.reset(0 if entry is None else entry)
            core.halted = entry is None
        self._halted_at_load = {core.core_id for core in self.cores
                                if core.halted}
        self._since = [self.cycle] * self.num_cores
        self._settle()
        self._pending = [None] * self.num_cores
        # Activity counters start from a clean slate (the synchronizer
        # reset above already touched DM).
        self.im.reset_counters()
        self.dm.reset_counters()
        self.im_xbar.reset()
        self.dm_xbar.reset()

    def attach_adc(self, streams: Sequence[Sequence[int]],
                   period_cycles: int) -> Adc:
        """Attach the ADC front-end and wire its IRQs to the synchronizer."""
        self.adc = Adc(streams, period_cycles,
                       raise_irq=self.synchronizer.raise_interrupt,
                       first_irq_line=IRQ_ADC_CH0)
        return self.adc

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def _cycles(self, end: int) -> None:
        """The cycle loop of :meth:`run`, up to ``end``.

        Clocked cores burn a busy cycle, retry a waiting DM access or
        fetch; a word's fetches are one transaction.  Fetches in one IM
        bank are granted here (several words by :meth:`Crossbar.pick`),
        tallied by port mask and booked once, on return or raise; the
        rest go to :meth:`Crossbar.arbitrate`.  A granted fetch calls
        the word's bound instruction for every port sharing it.  A cycle
        with no core clocked (first checked for halt and deadlock) and
        no interrupt line pending changes nothing until the ADC's next
        delivery, so the cycles before that are skipped.
        """
        cycle, cores, pending, program = (
            self.cycle, self.cores, self._pending, self._program)
        clocked, xbar, sync, adc = (
            self._clocked, self.im_xbar, self.synchronizer, self.adc)
        interrupts, submit, sleep = sync.interrupts, sync.submit, sync.sleep
        book, broadcast, pick = self._book, xbar.broadcast, xbar.pick
        port_sets, words_per_bank = xbar.port_sets, xbar.words_per_bank
        last_pc = xbar.num_banks * words_per_bank - 1
        granted_by_mask = [0] * len(port_sets)
        stalled_by_mask = [0] * len(port_sets)
        try:
            while cycle < end:
                if not clocked:
                    if self.all_halted:
                        break
                    if self.deadlocked():
                        raise self._deadlock_error()
                    if adc is not None and not interrupts.pending_lines:
                        skip = min(adc.cycles_to_next(), end - cycle) - 1
                        if skip > 0:
                            cycle += skip
                            adc.advance(skip)
                cycle = self.cycle = cycle + 1
                mem_queue: list[tuple[RiscCore, Effect]] = []
                fetches: dict[int, int] = {}  # word -> mask of its ports
                for core in clocked:
                    if core.busy_cycles_left:
                        core.busy_cycles_left -= 1
                        core.stats.busy_cycles += 1
                        continue
                    port = core.core_id
                    if pending[port] is not None:
                        mem_queue.append((core, pending[port]))
                    elif (pc := core.pc) in fetches:
                        fetches[pc] |= 1 << port
                    else:
                        fetches[pc] = 1 << port

                changed = synced = False
                if fetches:  # ``pc`` is the last word fetched
                    ports, in_place = fetches[pc], pc <= last_pc
                    if len(fetches) > 1 or not broadcast and ports & ports - 1:
                        # Contenders, granted here if all in one bank.
                        bank, union = pc // words_per_bank, 0
                        for word, mask in fetches.items():
                            union |= mask
                            if word // words_per_bank != bank:
                                in_place = False
                        if in_place:
                            port = pick(bank, union)
                            pc = cores[port].pc
                            ports = fetches[pc] if broadcast else 1 << port
                            stalled_by_mask[union ^ ports] += 1
                    if in_place:
                        granted_by_mask[ports] += 1
                        granted: list[Transaction] = [(pc, ports)]
                    else:  # arbitration also faults a word beyond the banks
                        granted, stalled = xbar.arbitrate(
                            fetches.items() if broadcast else
                            [(pc, 1 << port) for pc, ports in fetches.items()
                             for port in port_sets[ports]])
                        for port in port_sets[stalled]:
                            cores[port].stats.fetch_stalls += 1
                    for pc, ports in granted:
                        bound = program.get(pc)
                        if bound is None:
                            bank, index = divmod(pc, words_per_bank)
                            self.im.banks[bank].read(index)
                            raise SimulationError(
                                f"core {port_sets[ports][0]}: fetch from "
                                f"uninitialised IM address {pc:#06x}")
                        op, bank, index = bound
                        if bank.powered:  # ``read``'s count, without checks
                            bank.reads += 1
                        else:
                            bank.read(index)
                        for port in port_sets[ports]:
                            core = cores[port]
                            effect = op(core)
                            if effect is None:
                                continue
                            kind = effect.kind
                            if kind is _LOAD or kind is _STORE:
                                if effect.address >= PERIPH_BASE:
                                    self._peripheral_access(core, effect)
                                else:
                                    mem_queue.append((core, effect))
                            elif kind is _SYNC:
                                submit(port, effect.sync_op,
                                       effect.sync_point)
                                synced = True
                            elif kind is _SLEEP:
                                if sleep(port):
                                    book(core, cycle)
                                    core.gated = changed = True
                            else:
                                book(core, cycle)
                                core.halted = changed = True

                if mem_queue:
                    self._serve_memory(mem_queue)
                if synced or interrupts.pending_lines:
                    for port in sync.end_cycle():
                        book(cores[port], cycle)
                        cores[port].gated = False
                        changed = True
                if adc is not None:
                    adc.tick()
                if changed:
                    clocked = [core for core in cores
                               if not (core.halted or core.gated)]
            self.cycle = cycle
            self._clocked = clocked
        finally:
            for ports, cycles in enumerate(granted_by_mask):
                if cycles:
                    xbar.book(ports.bit_count(), 1, 0, cycles)
            for ports, cycles in enumerate(stalled_by_mask):
                if cycles:
                    xbar.book(0, 0, ports.bit_count(), cycles)
                    for port in port_sets[ports]:
                        cores[port].stats.fetch_stalls += cycles

    def _serve_memory(self, mem_queue: list[tuple[RiscCore, Effect]]) -> None:
        """Perform the cycle's DM accesses, arbitrating if they contend.

        Accesses to pairwise distinct banks neither merge nor conflict:
        all are granted, in queue order, without arbitration.  Otherwise
        reads of one word merge while broadcasting is on, each write and
        each read without broadcasting is its own transaction, and the
        crossbar arbitrates.
        """
        xbar, banks, pending = self.dm_xbar, self.dm.banks, self._pending
        translate = self.translation.translate
        cells = [translate(core.core_id, effect.address)
                 for core, effect in mem_queue]
        if len({bank for bank, _ in cells}) == len(cells):
            xbar.book(len(cells), len(cells))
            for (core, effect), (bank, index) in zip(mem_queue, cells):
                if effect.kind is _STORE:
                    banks[bank].write(index, effect.value)
                else:
                    core.complete_load(effect, banks[bank].read(index))
                pending[core.core_id] = None
            return
        effects: dict[int, Effect] = {}
        # (word, port) for a transaction of its own, (word, -1) for the
        # shared read of a word -> the mask of its ports.
        masks: dict[tuple[int, int], int] = {}
        for (core, effect), (bank, index) in zip(mem_queue, cells):
            port = core.core_id
            effects[port] = effect
            alone = effect.kind is _STORE or not xbar.broadcast
            key = (bank * xbar.words_per_bank + index, port if alone else -1)
            masks[key] = masks.get(key, 0) | 1 << port
        granted, stalled = xbar.arbitrate(
            [(word, ports) for (word, _), ports in masks.items()])
        port_sets = xbar.port_sets
        for port in port_sets[stalled]:
            self.cores[port].stats.mem_stalls += 1
            pending[port] = effects[port]
        for word, ports in granted:
            bank, index = divmod(word, xbar.words_per_bank)
            members = port_sets[ports]
            if effects[members[0]].kind is _STORE:
                banks[bank].write(index, effects[members[0]].value)
            else:
                value = banks[bank].read(index)
                for port in members:
                    self.cores[port].complete_load(effects[port], value)
            for port in members:
                pending[port] = None

    def _peripheral_access(self, core: RiscCore, effect: Effect) -> None:
        """Serve a memory-mapped register access (combinational)."""
        address = effect.address
        if effect.kind is EffectKind.STORE:
            if address == REG_INT_SUBSCRIBE:
                self.synchronizer.subscribe(core.core_id, effect.value)
            elif address == REG_ADC_CTRL and self.adc is not None:
                self.adc.write_ctrl(effect.value)
            else:
                raise MemoryFault(
                    f"core {core.core_id}: write to unmapped peripheral "
                    f"register {address:#06x}")
            return
        if address == REG_INT_SUBSCRIBE:
            value = self.synchronizer.subscription(core.core_id)
        elif address == REG_INT_STATUS:
            value = self.synchronizer.interrupts.pending_lines
        elif REG_ADC_DATA0 <= address < REG_ADC_DATA0 + 3:
            if self.adc is None:
                raise MemoryFault("ADC not attached")
            value = self.adc.read_data(address - REG_ADC_DATA0)
        elif address == REG_ADC_STATUS:
            value = self.adc.status_mask() if self.adc is not None else 0
        elif address == REG_CORE_ID:
            value = core.core_id
        elif address == REG_CYCLE_LO:
            value = self.cycle & 0xFFFF
        elif address == REG_CYCLE_HI:
            value = (self.cycle >> 16) & 0xFFFF
        else:
            raise MemoryFault(
                f"core {core.core_id}: read from unmapped peripheral "
                f"register {address:#06x}")
        core.complete_load(effect, value)

    # ------------------------------------------------------------------
    # Run helpers
    # ------------------------------------------------------------------

    @property
    def all_halted(self) -> bool:
        """True once every core has executed ``halt``."""
        return all(core.halted for core in self.cores)

    def deadlocked(self) -> bool:
        """True if no core can ever make progress again.

        Every non-halted core is clock-gated and no interrupt source
        can still fire (no ADC samples left and no pending lines).
        """
        return (all(core.halted or core.gated for core in self.cores)
                and not self.all_halted
                and not self.synchronizer.interrupts.pending_lines
                and (self.adc is None or self.adc.all_exhausted))

    def _deadlock_error(self) -> SimulationError:
        """Name each sync point holding a flag or a count (read by peek,
        so no counter moves) and its cores, gated or halted; with no
        such point, the gated cores."""
        sync, layout, parts = self.synchronizer, self.synchronizer.layout, []
        state = {core.core_id: "halted" if core.halted else "gated"
                 for core in self.cores}
        for point in range(sync.num_points):
            flags, counter = layout.decode(
                self.dm_peek(sync.point_address(point)))
            if flags or counter:
                cores = [f"core {core} {state[core]}"
                         for core in layout.cores_of(flags)]
                parts.append(f"point {point} (counter {counter}): "
                             + (", ".join(cores) or "none registered"))
        gated = [str(core) for core, name in state.items() if name == "gated"]
        return SimulationError(
            "deadlock: all cores clock-gated with no event source; "
            + ("; ".join(parts) or f"cores {', '.join(gated)} gated"))

    def run(self, max_cycles: int) -> int:
        """Run up to ``max_cycles``, or until every core has halted;
        returns cycles actually simulated.

        Raises :class:`SimulationError` on deadlock (all cores gated
        with no wake source left), naming the sync points and cores it
        waits on.  Both stop conditions need every
        core halted or gated, so they are checked only on cycles when
        no core is clocked.  Counters are settled on return or raise.
        """
        start = self.cycle
        try:
            self._cycles(start + max_cycles)
        finally:
            self._settle()
        return self.cycle - start

    def _book(self, core: RiscCore, cycle: int) -> None:
        """Book ``core``'s cycles up to ``cycle`` to its present state.

        Called just before a core halts, gates or wakes, and for every
        core when :meth:`run` returns or raises.
        """
        stats, cycles = core.stats, cycle - self._since[core.core_id]
        if core.halted:
            stats.halted_cycles += cycles
        elif core.gated:
            stats.gated_cycles += cycles
        else:
            stats.active_cycles += cycles
        self._since[core.core_id] = cycle

    def _settle(self) -> None:
        """Book every core's cycles so far; re-read who is clocked."""
        for core in self.cores:
            self._book(core, self.cycle)
        self._clocked = [core for core in self.cores
                         if not (core.halted or core.gated)]

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def dm_peek(self, address: int, core: int = 0) -> int:
        """Debug read of logical DM ``address`` as seen by ``core``."""
        bank, index = self.translation.translate(core, address)
        return self.dm.banks[bank].peek(index)

    def activity(self) -> SystemActivity:
        """Snapshot of all counters (the power model's input)."""
        return SystemActivity(
            cycles=self.cycle,
            active_cores=sum(
                1 for core in self.cores
                if core.core_id not in self._halted_at_load),
            core_active_cycles=[c.stats.active_cycles for c in self.cores],
            core_gated_cycles=[c.stats.gated_cycles for c in self.cores],
            instructions=sum(c.stats.instructions for c in self.cores),
            sync_instructions=sum(c.stats.sync_issued for c in self.cores),
            im=self.im.activity(),
            dm=self.dm.activity(),
            im_xbar=self.im_xbar.stats,
            dm_xbar=self.dm_xbar.stats,
            sync=self.synchronizer.stats,
            adc_overruns=self.adc.total_overruns if self.adc else 0,
        )
