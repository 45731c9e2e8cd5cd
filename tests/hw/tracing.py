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

Attaching wraps every instruction the system has bound at load (and,
through ``System.load``, those of each later load), the synchronizer's
``sleep`` and ``end_cycle``; ``detach`` restores them.  An untraced
system runs its bound instructions directly, so tracing costs nothing
until attached; attached, it is meant for short diagnostic runs.
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
    _untraced: dict[int, tuple] = field(default_factory=dict)
    _original_sleep: object = None
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
        system = self.system
        original_load = system.load

        def traced_load(*args, **kwargs) -> None:
            original_load(*args, **kwargs)
            self._wrap_program()

        system.load = traced_load  # type: ignore[method-assign]
        self._wrap_program()

        synchronizer = self.system.synchronizer
        original_sleep = self._original_sleep = synchronizer.sleep

        def traced_sleep(core_id: int) -> bool:
            gated = original_sleep(core_id)
            if gated and core_id in self.cores:
                self.events.append(TraceEvent(
                    cycle=self.system.cycle, core=core_id, kind="gate",
                    pc=self.system.cores[core_id].pc,
                    text="clock-gated"))
            return gated

        synchronizer.sleep = traced_sleep  # type: ignore[method-assign]

        original_end_cycle = synchronizer.end_cycle

        def traced_end_cycle() -> tuple[int, ...]:
            woken = original_end_cycle()
            for core_id in woken:
                if core_id in self.cores:
                    self.events.append(TraceEvent(
                        cycle=self.system.cycle, core=core_id, kind="wake",
                        pc=self.system.cores[core_id].pc, text="resumed"))
            return woken

        synchronizer.end_cycle = traced_end_cycle  # type: ignore
        self._attached = True

    def _wrap_program(self) -> None:
        """Record every execution of a bound instruction by a traced core.

        ``_untraced`` keeps the current program's own entries, so that
        ``detach`` can put them back.
        """
        system = self.system
        program = system._program
        self._untraced = dict(program)
        for pc, (op, bank, index) in self._untraced.items():
            def traced(core, _op=op, _pc=pc,
                       _text=format_instruction(system._decoded[pc])):
                effect = _op(core)
                if core.core_id in self.cores:
                    self.events.append(TraceEvent(
                        cycle=system.cycle, core=core.core_id, kind="exec",
                        pc=_pc, text=_text))
                return effect

            program[pc] = (traced, bank, index)

    def detach(self) -> None:
        """Restore the un-traced execution paths."""
        if not self._attached:
            return
        self.system._program.update(self._untraced)
        del self.system.load  # back to the class's method
        self.system.synchronizer.sleep = self._original_sleep  # type: ignore
        del self.system.synchronizer.end_cycle  # back to the class's method
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
