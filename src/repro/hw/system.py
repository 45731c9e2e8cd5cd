"""Cycle-level WBSN platform: cores + memories + crossbars + synchronizer.

This module wires together the pieces of Fig. 2: parallel RISC cores,
multi-banked instruction and data memories behind broadcasting
crossbars, the synchronizer unit, per-core ATUs and the memory-mapped
ADC.  A :class:`System` advances in lock-step clock cycles:

1. non-blocked cores present instruction fetches; the IM crossbar
   arbitrates (same-address fetches merge into one broadcast access);
2. granted cores execute; loads/stores become DM crossbar requests
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
from typing import Sequence

from ..core.synchronizer import Synchronizer, SynchronizerStats
from ..isa.encoding import Instruction, decode
from ..isa.errors import EncodingError, LoadError
from ..isa.layout import (
    DEFAULT_GEOMETRY,
    IRQ_ADC_CH0,
    PERIPH_BASE,
    PlatformGeometry,
    REG_ADC_CTRL,
    REG_ADC_DATA0,
    REG_ADC_STATUS,
    REG_CORE_ID,
    REG_CYCLE_HI,
    REG_CYCLE_LO,
    REG_INT_STATUS,
    REG_INT_SUBSCRIBE,
)
from ..isa.program import ProgramImage
from ..isa.spec import INSTR_MASK, WORD_MASK
from .adc import Adc
from .atu import MulticoreAtu, SingleCoreTranslation
from .core import Effect, EffectKind, RiscCore
from .interconnect import Crossbar, CrossbarStats, MemRequest
from .memory import BankedMemory, MemoryActivity, MemoryFault


_NONE, _LOAD, _STORE, _SYNC, _SLEEP = (
    EffectKind.NONE, EffectKind.LOAD, EffectKind.STORE, EffectKind.SYNC,
    EffectKind.SLEEP)


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
    any other DM traffic.  It holds no reference to the system, so a
    dropped system is freed at once.
    """

    def __init__(self, translation: MulticoreAtu | SingleCoreTranslation,
                 dm: BankedMemory) -> None:
        self._translation = translation
        self._dm = dm

    def read(self, address: int) -> int:
        location = self._translation.shared_location(address)
        return self._dm.read(location.bank, location.index)

    def write(self, address: int, value: int) -> None:
        location = self._translation.shared_location(address)
        self._dm.write(location.bank, location.index, value)


class System:
    """The cycle-level platform (multi-core or single-core baseline)."""

    def __init__(self, num_cores: int,
                 geometry: PlatformGeometry = DEFAULT_GEOMETRY,
                 multicore_dm: bool = True, broadcast: bool = True,
                 strict_sync: bool = True) -> None:
        geometry.validate()
        self.geometry = geometry
        self.num_cores = num_cores
        self.multicore_dm = multicore_dm
        self.cycle = 0
        self.cores = [RiscCore(core_id) for core_id in range(num_cores)]
        self.im = BankedMemory(geometry.im.banks, geometry.im.words_per_bank,
                               INSTR_MASK, name="im")
        self.dm = BankedMemory(geometry.dm.banks, geometry.dm.words_per_bank,
                               WORD_MASK, name="dm")
        self.im_xbar = Crossbar(num_cores, geometry.im.banks,
                                broadcast=broadcast, name="im_xbar")
        self.dm_xbar = Crossbar(num_cores, geometry.dm.banks,
                                broadcast=broadcast, name="dm_xbar")
        if multicore_dm:
            self.translation: MulticoreAtu | SingleCoreTranslation = \
                MulticoreAtu(num_cores, geometry.dm, geometry.memory_map)
        else:
            self.translation = SingleCoreTranslation(geometry.dm,
                                                     geometry.memory_map)
        self.synchronizer = Synchronizer(
            num_cores=num_cores,
            num_points=geometry.memory_map.sync_points,
            point_base=geometry.memory_map.sync_point_base,
            storage=_SyncDmPort(self.translation, self.dm),
            strict=strict_sync)
        self.adc: Adc | None = None
        self._decoded: dict[int, Instruction] = {}
        self._pending: list[Effect | None] = [None] * num_cores
        self._halted_at_load: set[int] = set(range(num_cores))
        self._fetch_requests: dict[int, list[MemRequest]] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def multicore(cls, num_cores: int = 8,
                  geometry: PlatformGeometry = DEFAULT_GEOMETRY,
                  broadcast: bool = True,
                  strict_sync: bool = True) -> "System":
        """The paper's target system (Sec. IV-B)."""
        return cls(num_cores=num_cores, geometry=geometry,
                   multicore_dm=True, broadcast=broadcast,
                   strict_sync=strict_sync)

    @classmethod
    def singlecore(cls, geometry: PlatformGeometry = DEFAULT_GEOMETRY,
                   strict_sync: bool = True) -> "System":
        """The paper's baseline system (Sec. IV-B)."""
        return cls(num_cores=1, geometry=geometry, multicore_dm=False,
                   broadcast=False, strict_sync=strict_sync)

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
        # Reset the synchronizer first: clearing the points writes into
        # shared DM, which must happen while all banks are still powered.
        self.synchronizer.reset()
        geom = self.geometry.im
        used_im_banks: set[int] = set()
        for address, word in image.im.items():
            bank = geom.bank_of(address)
            if bank >= geom.banks:
                raise LoadError(f"IM address {address:#06x} beyond memory")
            self.im.bank(bank).poke(address % geom.words_per_bank, word)
            used_im_banks.add(bank)
            try:
                self._decoded[address] = decode(word)
            except EncodingError:
                pass  # raw data words are not executable
        self.im.power_off_unused(used_im_banks)

        for address, value in image.dm_init.items():
            location = self._dm_init_location(address)
            self.dm.bank(location.bank).poke(location.index, value)

        if dm_banks_on is None:
            if self.multicore_dm:
                dm_banks_on = set(range(self.geometry.dm.banks))
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
        self._pending = [None] * self.num_cores
        # Activity counters start from a clean slate (the synchronizer
        # reset above already touched DM).
        self.im.reset_counters()
        self.dm.reset_counters()
        self.im_xbar.reset()
        self.dm_xbar.reset()

    def _dm_init_location(self, address: int):
        if self.multicore_dm:
            translation = self.translation
            assert isinstance(translation, MulticoreAtu)
            mmap = self.geometry.memory_map
            if address < mmap.shared_base:
                raise LoadError(
                    f".dm address {address:#06x} is core-private; only "
                    f"shared addresses can be statically initialised on "
                    f"the multi-core platform")
            return translation.shared_location(address)
        return self.translation.translate(0, address)

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

    def step(self) -> None:
        """Advance the platform by one clock cycle."""
        self.cycle += 1
        cores = self.cores
        pending = self._pending
        fetch_requests = self._fetch_requests
        mem_queue: list[tuple[RiscCore, Effect]] = []
        fetches: list[MemRequest] = []
        for core in cores:
            if core.halted:
                core.stats.halted_cycles += 1
            elif core.gated:
                core.stats.gated_cycles += 1
            else:
                stats = core.stats
                stats.active_cycles += 1
                if core.busy_cycles_left:
                    core.busy_cycles_left -= 1
                    stats.busy_cycles += 1
                elif pending[core.core_id] is not None:
                    mem_queue.append((core, pending[core.core_id]))
                else:
                    at_pc = (fetch_requests.get(core.pc)
                             or self._fetch_requests_at(core.pc))
                    fetches.append(at_pc[core.core_id])

        if fetches:
            result = self.im_xbar.arbitrate(fetches)
            for request in result.stalled:
                cores[request.port].stats.fetch_stalls += 1
            for group in result.granted:
                self.im.read(group.bank, group.index)
                address = (group.bank * self.geometry.im.words_per_bank
                           + group.index)
                instr = self._decoded.get(address)
                if instr is None:
                    raise SimulationError(
                        f"core {group.requests[0].port}: fetch from "
                        f"uninitialised IM address {address:#06x}")
                for request in group.requests:
                    core = cores[request.port]
                    effect = core.execute(instr)
                    kind = effect.kind
                    if kind is _NONE:
                        continue
                    if kind is _LOAD or kind is _STORE:
                        if effect.address >= PERIPH_BASE:
                            self._peripheral_access(core, effect)
                        else:
                            mem_queue.append((core, effect))
                    elif kind is _SYNC:
                        self.synchronizer.submit(
                            core.core_id, effect.sync_op, effect.sync_point)
                    elif kind is _SLEEP:
                        if self.synchronizer.sleep(core.core_id):
                            core.gated = True
                    else:
                        core.halted = True

        if mem_queue:
            self._serve_memory(mem_queue)
        for core_id in self.synchronizer.end_cycle():
            cores[core_id].gated = False
        if self.adc is not None:
            self.adc.tick()

    def _fetch_requests_at(self, pc: int) -> list[MemRequest]:
        """Every port's IM request for address ``pc``, built once."""
        bank, index = divmod(pc, self.geometry.im.words_per_bank)
        requests = self._fetch_requests[pc] = [
            MemRequest(port, bank, index) for port in range(self.num_cores)]
        return requests

    def _serve_memory(self, mem_queue: list[tuple[RiscCore, Effect]]) -> None:
        """Arbitrate the cycle's DM accesses and perform the granted."""
        translate = self.translation.translate
        requests = []
        effects: dict[int, Effect] = {}
        for core, effect in mem_queue:
            location = translate(core.core_id, effect.address)
            effects[core.core_id] = effect
            requests.append(MemRequest(
                core.core_id, location.bank, location.index,
                effect.kind is _STORE, effect.value))
        result = self.dm_xbar.arbitrate(requests)
        for request in result.stalled:
            self.cores[request.port].stats.mem_stalls += 1
            self._pending[request.port] = effects[request.port]
        for group in result.granted:
            if group.is_write:
                request = group.requests[0]
                self.dm.write(group.bank, group.index, request.value)
                self._pending[request.port] = None
            else:
                value = self.dm.read(group.bank, group.index)
                for request in group.requests:
                    self.cores[request.port].complete_load(
                        effects[request.port], value)
                    self._pending[request.port] = None

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

    def run(self, max_cycles: int, stop_on_halt: bool = True) -> int:
        """Run up to ``max_cycles``; returns cycles actually simulated.

        Raises :class:`SimulationError` on deadlock (all cores gated
        with no wake source left).  Both stop conditions need every
        core halted or gated, so they are checked only on such cycles.
        """
        start = self.cycle
        end = start + max_cycles
        cores = self.cores
        while self.cycle < end:
            for core in cores:
                if not (core.halted or core.gated):
                    break
            else:
                if stop_on_halt and self.all_halted:
                    break
                if self.deadlocked():
                    raise SimulationError(
                        "deadlock: all cores clock-gated with no event "
                        "source")
            self.step()
        return self.cycle - start

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def dm_peek(self, address: int, core: int = 0) -> int:
        """Debug read of logical DM ``address`` as seen by ``core``."""
        location = self.translation.translate(core, address)
        return self.dm.bank(location.bank).peek(location.index)

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
