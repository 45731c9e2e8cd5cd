"""Tests for streaming (chunked) morphological filtering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.morphology import MfParams, MorphologicalFilter
from repro.signals import cse_like_record

from .streaming import StreamingMorphologicalFilter

FS = 250.0


def _stream_in_chunks(signal, chunk_sizes):
    stream = StreamingMorphologicalFilter(fs=FS)
    outputs = []
    position = 0
    for size in chunk_sizes:
        outputs.append(stream.push(signal[position:position + size]))
        position += size
    if position < len(signal):
        outputs.append(stream.push(signal[position:]))
    outputs.append(stream.finish())
    return np.concatenate(outputs)


def test_chunked_equals_batch_on_ecg():
    record = cse_like_record(duration_s=8.0, num_leads=1)
    lead = record.leads[0]
    batch = MorphologicalFilter(fs=FS).process(lead)
    chunked = _stream_in_chunks(lead, [250] * 8)
    assert np.array_equal(batch, chunked)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=400),
                min_size=1, max_size=10),
       st.integers(min_value=0, max_value=1_000_000))
def test_chunked_equals_batch_for_any_split(chunk_sizes, seed):
    """Exactness for arbitrary block boundaries (property test)."""
    rng = np.random.default_rng(seed)
    total = sum(chunk_sizes)
    signal = rng.integers(-5000, 5000, size=total, dtype=np.int32)
    batch = MorphologicalFilter(fs=FS).process(signal)
    chunked = _stream_in_chunks(signal, chunk_sizes)
    assert np.array_equal(batch, chunked)


def test_memory_stays_bounded():
    stream = StreamingMorphologicalFilter(fs=FS)
    rng = np.random.default_rng(1)
    for _ in range(40):
        stream.push(rng.integers(-100, 100, size=100, dtype=np.int32))
        assert stream.memory_words <= 2 * stream.reach + 100
    assert stream.pending_samples <= stream.reach


def test_small_pushes_emit_nothing_until_reach():
    stream = StreamingMorphologicalFilter(fs=FS)
    out = stream.push(np.arange(10, dtype=np.int32))
    assert len(out) == 0
    assert stream.pending_samples == 10


def test_finish_flushes_everything():
    signal = np.arange(100, dtype=np.int32)
    stream = StreamingMorphologicalFilter(fs=FS)
    head = stream.push(signal)
    tail = stream.finish()
    assert len(head) + len(tail) == len(signal)


def test_push_after_finish_rejected():
    stream = StreamingMorphologicalFilter(fs=FS)
    stream.finish()
    with pytest.raises(RuntimeError):
        stream.push(np.zeros(4, dtype=np.int32))


def test_custom_params_respected():
    params = MfParams(baseline_open_s=0.1, baseline_close_s=0.15,
                      noise_element=3)
    stream = StreamingMorphologicalFilter(fs=FS, params=params)
    batch = MorphologicalFilter(fs=FS, params=params)
    signal = np.arange(600, dtype=np.int32) % 97
    out = np.concatenate([stream.push(signal), stream.finish()])
    assert np.array_equal(out, batch.process(signal))
