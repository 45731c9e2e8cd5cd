"""Tests for the bottom-up cost cross-validation."""

import pytest

from .costmodel import (
    DEFAULT_CYCLES_PER_ELEMENT,
    derive_filter_cost,
)


def test_derived_and_calibrated_costs_agree():
    """Bottom-up DSP cost within 2x of the Table-I-anchored budget."""
    consistency = derive_filter_cost()
    assert 0.5 <= consistency.ratio <= 2.0


def test_measured_cost_agrees_too():
    """Same check with the per-element cost measured on the platform."""
    consistency = derive_filter_cost(measure=True)
    assert consistency.cycles_per_element == pytest.approx(
        DEFAULT_CYCLES_PER_ELEMENT, rel=0.25)
    assert 0.5 <= consistency.ratio <= 2.0


def test_derived_cost_scales_with_sampling_rate():
    low = derive_filter_cost(fs=250.0)
    high = derive_filter_cost(fs=500.0)
    assert high.derived_cycles_per_sample > \
        1.8 * low.derived_cycles_per_sample


def test_explicit_cycles_per_element():
    consistency = derive_filter_cost(cycles_per_element=10.0)
    assert consistency.cycles_per_element == 10.0
    assert consistency.derived_cycles_per_sample == pytest.approx(
        10.0 * (2 * 51 + 2 * 75 + 4 * 5))
