"""Skipped all-gated gaps against the per-cycle oracle, bit for bit.

When no core is clocked and no interrupt line is pending, nothing can
change before the ADC's next delivery, so ``System.run`` jumps over the
cycles before it.  ``tests/hw/reference_system.py`` still steps every
cycle; these runs use real ADC periods (1,000 cycles and more), where
almost every cycle is all-gated, and hold the fast loop to the oracle
with :func:`run_both`: the same outcome, state and counters after one
``run``, after ``run(k)`` chunks that end mid-gap, and after every run
the accounting invariants.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.system import System
from repro.isa.assembler import assemble
from repro.kernels import running_max_kernel

from .test_cycle_differential import (
    _multicore,
    _state,
    programs,
    run_both,
)

_SAMPLES = 6
#: ``run(k)`` chunks: mid-gap, about a period, and across several gaps.
_CHUNKS = (997, 4_001, 9_999)


def _streams(samples: int) -> list[list[int]]:
    return [[(97 * lead + 31 * n) % 1_000 for n in range(samples)]
            for lead in range(3)]


def _loaded(period: int, samples: int = _SAMPLES) -> System:
    system = System.multicore(num_cores=8)
    system.load(assemble(running_max_kernel(samples)))
    system.attach_adc(_streams(samples), period)
    return system


@pytest.mark.parametrize("budget", [1, 998, 999, 1_000, 1_001, 2_345])
def test_run_spends_exactly_its_budget(budget):
    """A budget that ends inside a gap, or just before or after a
    delivery, stops the run there."""
    system = _loaded(1_000)
    assert system.run(budget) == budget
    assert system.cycle == budget


@pytest.mark.parametrize("period", [1_000, 2_500, 4_000])
def test_running_max_runs_to_halt(period):
    """Every sample consumed, then the cores halt while the ADC idles."""
    error, state = run_both(
        _multicore(), running_max_kernel(_SAMPLES),
        max_cycles=period * (_SAMPLES + 4),
        adc=(_streams(_SAMPLES), period), chunks=_CHUNKS)
    assert error is None
    assert [halted for *_, halted, _ in state["cores"][:3]] == [True] * 3
    assert state["cycle"] > period * _SAMPLES


def test_running_max_outlives_its_input():
    """The cores wait for samples that never come: the same deadlock at
    the same cycle, after skipping the last gaps."""
    error, _ = run_both(
        _multicore(), running_max_kernel(_SAMPLES + 2),
        max_cycles=1_000 * (_SAMPLES + 8),
        adc=(_streams(_SAMPLES), 1_000), chunks=_CHUNKS)
    assert error is not None and "deadlock" in error[1]


def test_running_max_stops_at_the_budget_mid_gap():
    """A budget that ends inside a gap stops there, not at the delivery."""
    error, state = run_both(
        _multicore(), running_max_kernel(_SAMPLES),
        max_cycles=2_500 * 3 + 1_234,
        adc=(_streams(_SAMPLES), 2_500), chunks=_CHUNKS)
    assert error is None
    assert state["cycle"] == 2_500 * 3 + 1_234


def test_step_never_skips():
    """``run(1)`` advances one cycle, so it never skips inside it; the
    same cycles in one ``run`` leave the same state."""
    stepped, ran = _loaded(1_000), _loaded(1_000)
    for _ in range(3_456):
        assert stepped.run(1) == 1
    ran.run(3_456)
    assert stepped.cycle == 3_456
    assert _state(stepped) == _state(ran)


_STREAMS = st.lists(st.lists(st.integers(0, 0xFFFF), max_size=4),
                   min_size=3, max_size=3)


@settings(max_examples=12, deadline=None)
@given(programs(adc=True), _STREAMS, st.integers(1_000, 3_000),
       st.sampled_from((None,) + _CHUNKS))
def test_random_programs_with_slow_adc(program, streams, period, chunk):
    run_both(_multicore(), program, max_cycles=period * 5 + 1_500,
             adc=(streams, period), chunks=(chunk,) if chunk else ())
