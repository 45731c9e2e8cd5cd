"""Tests for the execution tracer."""

from repro.hw.system import System
from repro.isa.assembler import assemble

from .tracing import Tracer

_PROGRAM = """
    .equ SP, 0
    .entry 0, main
    .entry 1, main
main:
    li   r5, 0x7F20       ; REG_CORE_ID
    lw   r6, 0(r5)
    sinc SP
    addi r1, r6, 1        ; core 0 spins once, core 1 twice ->
spin:                     ; they leave the region at different times
    addi r1, r1, -1
    bnez r1, spin
    sdec SP
    sleep
    halt
"""


def _traced_system(cores=None):
    system = System.multicore(num_cores=8)
    tracer = Tracer.attach(system, cores=cores)
    system.load(assemble(_PROGRAM))
    system.run(1000)
    assert system.all_halted
    return system, tracer


def test_tracer_records_executed_instructions():
    _, tracer = _traced_system()
    texts = [event.text for event in tracer.of_core(0)
             if event.kind == "exec"]
    assert "sinc 0" in texts
    assert "sdec 0" in texts
    assert "halt" in texts


def test_tracer_sees_gating_and_wakeups():
    _, tracer = _traced_system()
    kinds = {event.kind for event in tracer.gate_events()}
    # One core gates on SLEEP and is woken; the other falls through.
    assert "gate" in kinds
    assert "wake" in kinds


def test_tracer_core_filter():
    _, tracer = _traced_system(cores={1})
    assert tracer.of_core(0) == []
    assert tracer.of_core(1)


def test_tracer_render_and_limit():
    _, tracer = _traced_system()
    text = tracer.render(limit=3)
    assert "core" in text
    assert "more events" in text


def test_detach_restores_fast_path():
    system = System.multicore(num_cores=8)
    tracer = Tracer.attach(system)
    tracer.detach()
    system.load(assemble(_PROGRAM))
    system.run(1000)
    assert system.all_halted
    assert tracer.events == []  # nothing recorded after detach


def test_tracer_events_are_cycle_ordered():
    _, tracer = _traced_system()
    cycles = [event.cycle for event in tracer.events]
    assert cycles == sorted(cycles)
