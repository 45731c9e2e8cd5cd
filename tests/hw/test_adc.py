"""Tests for the ADC peripheral."""

import pytest

from repro.hw.adc import Adc


def _make(streams, period=4):
    raised = []
    adc = Adc(streams, period_cycles=period, raise_irq=raised.append)
    return adc, raised


def test_samples_delivered_on_period_boundaries():
    adc, raised = _make([[10, 20, 30]], period=4)
    for _ in range(3):
        adc.tick()
    assert raised == []
    adc.tick()  # 4th cycle -> first sample
    assert raised == [0]
    assert adc.read_data(0) == 10
    for _ in range(4):
        adc.tick()
    assert raised == [0, 0]
    assert adc.read_data(0) == 20


def test_three_channels_raise_distinct_lines():
    adc, raised = _make([[1], [2], [3]], period=2)
    adc.tick()
    adc.tick()
    assert raised == [0, 1, 2]
    assert adc.read_data(0) == 1
    assert adc.read_data(1) == 2
    assert adc.read_data(2) == 3


def test_status_mask_and_read_to_acknowledge():
    adc, _ = _make([[5], [6]], period=1)
    adc.tick()
    assert adc.status_mask() == 0b11
    adc.read_data(0)
    assert adc.status_mask() == 0b10


def test_overrun_detection():
    adc, _ = _make([[1, 2]], period=1)
    adc.tick()
    adc.tick()  # second sample overwrites the unread first
    assert adc.total_overruns == 1
    assert adc.read_data(0) == 2


def test_no_overrun_when_consumed_in_time():
    adc, _ = _make([[1, 2, 3]], period=2)
    for _ in range(3):
        adc.tick()
        adc.tick()
        adc.read_data(0)
    assert adc.total_overruns == 0
    assert adc.all_exhausted


def test_disabled_channel_is_silent():
    adc, raised = _make([[1], [2]], period=1)
    adc.write_ctrl(0b10)  # only channel 1 enabled
    adc.tick()
    assert raised == [1]
    assert not adc.channels[0].stats.delivered


def test_exhausted_stream_stops_interrupting():
    adc, raised = _make([[7]], period=1)
    adc.tick()
    adc.tick()
    adc.tick()
    assert raised == [0]
    assert adc.all_exhausted


def test_negative_samples_wrap_to_u16():
    adc, _ = _make([[-3]], period=1)
    adc.tick()
    assert adc.read_data(0) == 0xFFFD


def test_zero_period_rejected():
    with pytest.raises(ValueError):
        Adc([[1]], period_cycles=0, raise_irq=lambda line: None)


@pytest.mark.parametrize("ticked, cycles", [(0, 0), (0, 3), (5, 2)])
def test_advance_equals_ticks_within_a_gap(ticked, cycles):
    """Inside a gap ``advance(k)`` is ``k`` ticks; ``cycles_to_next``
    counts the ticks up to and including the next delivery."""
    stepped, stepped_raised = _make([[1, 2, 3], [4, 5]], period=4)
    jumped, jumped_raised = _make([[1, 2, 3], [4, 5]], period=4)
    for _ in range(ticked):
        stepped.tick()
        jumped.tick()
    for _ in range(cycles):
        stepped.tick()
    jumped.advance(cycles)
    assert jumped_raised == stepped_raised
    assert jumped.cycles_to_next() == stepped.cycles_to_next()
    assert [(c.value, c.ready, c.stats) for c in jumped.channels] == \
        [(c.value, c.ready, c.stats) for c in stepped.channels]
    for _ in range(jumped.cycles_to_next() - 1):
        jumped.tick()
    assert len(jumped_raised) == len(stepped_raised)
    jumped.tick()
    assert len(jumped_raised) > len(stepped_raised)


@pytest.mark.parametrize("cycles", [4, 5, -1])
def test_advance_to_or_past_a_delivery_rejected(cycles):
    adc, _ = _make([[1]], period=4)
    with pytest.raises(ValueError):
        adc.advance(cycles)
    assert adc.cycles_to_next() == 4
