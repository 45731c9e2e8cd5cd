"""Execution tracing for the cycle-level platform.

A :class:`Tracer` records, per core and per retired instruction, the
cycle, program counter and disassembled text — plus synchronization
milestones (gating, wake-ups, point firings).  It is the debugging
layer every real simulation framework ships with, and it is what the
integration tests use to diagnose protocol deadlocks.

Usage::

    system = System.multicore()
    tracer = Tracer.attach(system, cores={0, 1})
    system.load(image)
    system.run(1000)
    print(tracer.render(limit=50))

Attaching wraps ``RiscCore.execute`` and the synchronizer's wake path;
``detach`` restores them.  Tracing costs simulation speed and is meant
for short diagnostic runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.hw.system import System
from repro.isa.disassembler import format_instruction


@dataclass(frozen=True)
class TraceEvent:
    """One traced event.

    Attributes:
        cycle: platform cycle the event happened in.
        core: core id.
        kind: ``exec`` | ``gate`` | ``wake``.
        pc: program counter (for ``exec``).
        text: disassembly or a short note.
    """

    cycle: int
    core: int
    kind: str
    pc: int
    text: str


@dataclass
class Tracer:
    """Recorder of per-core execution and synchronization events."""

    system: System
    cores: set[int]
    events: list[TraceEvent] = field(default_factory=list)
    _originals: dict[int, object] = field(default_factory=dict)
    _original_on_wake: object = None
    _attached: bool = False

    @classmethod
    def attach(cls, system: System,
               cores: Iterable[int] | None = None) -> "Tracer":
        """Start tracing ``cores`` (default: all) on ``system``."""
        selected = set(cores) if cores is not None \
            else set(range(system.num_cores))
        tracer = cls(system=system, cores=selected)
        tracer._hook()
        return tracer

    def _hook(self) -> None:
        if self._attached:
            return
        for core in self.system.cores:
            if core.core_id not in self.cores:
                continue
            original = core.execute
            self._originals[core.core_id] = original

            def traced_execute(instr, _core=core, _orig=original):
                pc = _core.pc
                effect = _orig(instr)
                self.events.append(TraceEvent(
                    cycle=self.system.cycle, core=_core.core_id,
                    kind="exec", pc=pc,
                    text=format_instruction(instr)))
                return effect

            core.execute = traced_execute  # type: ignore[method-assign]

        synchronizer = self.system.synchronizer
        original_sleep = synchronizer.sleep
        self._originals[-1] = original_sleep

        def traced_sleep(core_id: int) -> bool:
            gated = original_sleep(core_id)
            if gated and core_id in self.cores:
                self.events.append(TraceEvent(
                    cycle=self.system.cycle, core=core_id, kind="gate",
                    pc=self.system.cores[core_id].pc,
                    text="clock-gated"))
            return gated

        synchronizer.sleep = traced_sleep  # type: ignore[method-assign]

        self._original_on_wake = self.system.synchronizer.on_wake

        def traced_wake(core_id: int) -> None:
            if core_id in self.cores:
                self.events.append(TraceEvent(
                    cycle=self.system.cycle, core=core_id, kind="wake",
                    pc=self.system.cores[core_id].pc, text="resumed"))
            if callable(self._original_on_wake):
                self._original_on_wake(core_id)

        self.system.synchronizer.on_wake = traced_wake
        self._attached = True

    def detach(self) -> None:
        """Restore the un-traced execution paths."""
        if not self._attached:
            return
        for core_id, original in self._originals.items():
            if core_id == -1:
                self.system.synchronizer.sleep = original  # type: ignore
            else:
                self.system.cores[core_id].execute = \
                    original  # type: ignore[method-assign]
        self.system.synchronizer.on_wake = self._original_on_wake
        self._originals.clear()
        self._attached = False

    def of_core(self, core: int) -> list[TraceEvent]:
        """Events of one core, in order."""
        return [event for event in self.events if event.core == core]

    def gate_events(self) -> list[TraceEvent]:
        """All clock-gating and wake events."""
        return [event for event in self.events
                if event.kind in ("gate", "wake")]

    def render(self, limit: int | None = None) -> str:
        """Human-readable trace listing."""
        rows = self.events if limit is None else self.events[:limit]
        lines = [f"{event.cycle:>8}  core{event.core}  "
                 f"{event.pc:#06x}  {event.kind:<5} {event.text}"
                 for event in rows]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        return "\n".join(lines)
