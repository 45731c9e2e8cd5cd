"""Block-wise (streaming) morphological filtering.

A WBSN never sees the whole recording: samples arrive from the ADC and
must be conditioned incrementally under a bounded memory budget.
:class:`StreamingMorphologicalFilter` wraps the batch filter of
:mod:`repro.dsp.morphology` with exact chunked semantics: feeding the
same record in arbitrary block sizes yields *bit-identical* output to
one batch call (property-tested), while retaining only a
``2 x reach + block`` sample window — the memory the paper's per-lead
private DM section actually holds.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.morphology import MfParams, MorphologicalFilter


class StreamingMorphologicalFilter:
    """Incremental version of :class:`MorphologicalFilter`.

    Args:
        fs: sampling rate in Hz.
        params: structuring-element sizing (as the batch filter).

    Usage::

        stream = StreamingMorphologicalFilter(fs=250.0)
        for chunk in chunks:
            out.append(stream.push(chunk))
        out.append(stream.finish())
    """

    def __init__(self, fs: float, params: MfParams | None = None) -> None:
        self.filter = MorphologicalFilter(fs, params)
        # One output sample depends on at most `reach` samples on each
        # side: each erosion/dilation pass widens the dependency by
        # half its element, and the filter chains two passes per
        # baseline element plus two short noise passes.
        self.reach = (self.filter.open_size + self.filter.close_size
                      + 2 * self.filter.noise_size)
        self._buffer = np.zeros(0, dtype=np.int32)
        self._buffer_start = 0  # global index of _buffer[0]
        self._emitted = 0       # global count of emitted outputs
        self._finished = False

    @property
    def pending_samples(self) -> int:
        """Samples buffered but not yet emitted."""
        return self._buffer_start + len(self._buffer) - self._emitted

    @property
    def memory_words(self) -> int:
        """Current buffer footprint in 16-bit words."""
        return len(self._buffer)

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Feed a block of samples; returns newly finalised output.

        Output sample ``i`` is emitted once ``i + reach`` input samples
        exist, so its value can no longer be influenced by future
        input — which makes the chunked output exactly equal to the
        batch output.
        """
        if self._finished:
            raise RuntimeError("push after finish()")
        chunk = np.asarray(chunk, dtype=np.int32)
        self._buffer = np.concatenate([self._buffer, chunk])
        total = self._buffer_start + len(self._buffer)
        # Global indices we can finalise now.
        ready_until = total - self.reach
        if ready_until <= self._emitted:
            return np.zeros(0, dtype=np.int32)
        out = self._emit(ready_until)
        self._trim()
        return out

    def finish(self) -> np.ndarray:
        """Flush the tail (uses edge replication like the batch filter)."""
        self._finished = True
        total = self._buffer_start + len(self._buffer)
        if total == self._emitted:
            return np.zeros(0, dtype=np.int32)
        return self._emit(total)

    def _emit(self, ready_until: int) -> np.ndarray:
        """Filter the buffer and emit global range [emitted, ready_until).

        The buffer always retains ``reach`` samples of left context
        (or starts at the true record start), so the batch filter's
        edge replication matches the full-record behaviour.
        """
        filtered = self.filter.process(self._buffer)
        local_from = self._emitted - self._buffer_start
        local_to = ready_until - self._buffer_start
        out = filtered[local_from:local_to].copy()
        self._emitted = ready_until
        return out

    def _trim(self) -> None:
        """Drop samples no future output can depend on."""
        keep_from_global = max(0, self._emitted - self.reach)
        drop = keep_from_global - self._buffer_start
        if drop > 0:
            self._buffer = self._buffer[drop:]
            self._buffer_start = keep_from_global
