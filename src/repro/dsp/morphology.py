"""Morphological filtering of ECG signals (the 3L-MF benchmark).

Implements the conditioning stage of Sun et al., "ECG Signal
Conditioning by Morphological Filtering" [21], the paper's first
benchmark: baseline-wander removal by an opening-closing pair with long
structuring elements, followed by noise suppression averaging an
opening and a closing with short elements.

All operators use flat (constant-zero) structuring elements, so
erosion/dilation reduce to sliding-window minimum/maximum — exactly the
comparison-dominated inner loops that make morphological filtering a
good fit for tiny integer cores, and whose data-dependent branches are
what the paper's lock-step recovery mechanism re-synchronises.

The implementation is numpy-vectorised for simulation speed; the
embedded cost model (ops per sample) is exposed via
:meth:`MorphologicalFilter.ops_per_sample` and mirrors the naive
streaming implementation an MCU would run (k-1 comparisons plus k loads
per output sample for a k-wide window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _sliding_extreme(signal: np.ndarray, size: int, take_max: bool
                     ) -> np.ndarray:
    """Sliding-window min/max with edge replication, output same length.

    Only odd sizes are accepted: a symmetric flat structuring element
    is its own reflection, which keeps erosion/dilation an adjunction
    and therefore opening anti-extensive and closing extensive (the
    properties the filter's correctness rests on).
    """
    if size < 1:
        raise ValueError("structuring element size must be >= 1")
    if size % 2 == 0:
        raise ValueError("structuring element size must be odd "
                         "(symmetric flat element)")
    if size == 1:
        return signal.astype(np.int32, copy=True)
    samples = np.asarray(signal, dtype=np.int32)
    left = size // 2
    right = size - 1 - left
    padded = np.concatenate([
        np.full(left, samples[0], dtype=np.int32),
        samples,
        np.full(right, samples[-1], dtype=np.int32),
    ])
    windows = np.lib.stride_tricks.sliding_window_view(padded, size)
    return windows.max(axis=1) if take_max else windows.min(axis=1)


def _make_odd(size: int) -> int:
    """Round up to the next odd size (symmetric structuring element)."""
    return size if size % 2 else size + 1


def erode(signal: np.ndarray, size: int) -> np.ndarray:
    """Flat erosion: sliding-window minimum of width ``size``."""
    return _sliding_extreme(signal, size, take_max=False)


def dilate(signal: np.ndarray, size: int) -> np.ndarray:
    """Flat dilation: sliding-window maximum of width ``size``."""
    return _sliding_extreme(signal, size, take_max=True)


def opening(signal: np.ndarray, size: int) -> np.ndarray:
    """Morphological opening (erosion then dilation)."""
    return dilate(erode(signal, size), size)


def closing(signal: np.ndarray, size: int) -> np.ndarray:
    """Morphological closing (dilation then erosion)."""
    return erode(dilate(signal, size), size)


@dataclass(frozen=True)
class MfParams:
    """Structuring-element sizing of the conditioning filter.

    Following [21], the baseline elements must be longer than the
    widest wave to remove drift without clipping the QRS complex:
    ``baseline_open_s`` ~ 0.2 s and ``baseline_close_s`` ~ 1.5x that.
    The noise elements are a few samples wide.

    Attributes:
        baseline_open_s: opening element length in seconds.
        baseline_close_s: closing element length in seconds.
        noise_element: short element length in samples (odd).
    """

    baseline_open_s: float = 0.20
    baseline_close_s: float = 0.30
    noise_element: int = 5


class MorphologicalFilter:
    """Single-lead ECG conditioning filter (one 3L-MF phase).

    Args:
        fs: sampling frequency in Hz.
        params: structuring-element sizing.
    """

    def __init__(self, fs: float, params: MfParams | None = None) -> None:
        self.fs = fs
        self.params = params or MfParams()
        self.open_size = _make_odd(
            max(3, int(round(self.params.baseline_open_s * fs))))
        self.close_size = _make_odd(
            max(3, int(round(self.params.baseline_close_s * fs))))
        if self.params.noise_element < 1:
            raise ValueError("noise element must be positive")
        self.noise_size = _make_odd(self.params.noise_element)

    def baseline(self, lead: np.ndarray) -> np.ndarray:
        """Estimated baseline drift of the lead ([21], eq. 1)."""
        return closing(opening(lead, self.open_size), self.close_size)

    def process(self, lead: np.ndarray) -> np.ndarray:
        """Return the conditioned lead (drift removed, noise suppressed)."""
        corrected = np.asarray(lead, dtype=np.int32) - self.baseline(lead)
        denoised = (opening(corrected, self.noise_size).astype(np.int64)
                    + closing(corrected, self.noise_size)) // 2
        return denoised.astype(np.int32)

    def ops_per_sample(self) -> int:
        """Embedded operation count per output sample.

        A streaming erosion/dilation of width ``k`` costs ``k`` loads
        and ``k - 1`` comparisons per sample on the 16-bit core (the
        MCU recomputes each window; no van-Herk optimisation at these
        memory budgets).  The filter runs opening+closing at the two
        baseline widths plus the two short noise passes, then a
        subtract and an average.
        """
        def pass_ops(size: int) -> int:
            return 2 * size - 1  # k loads + (k-1) compares

        baseline_ops = 2 * pass_ops(self.open_size) \
            + 2 * pass_ops(self.close_size)
        noise_ops = 4 * pass_ops(self.noise_size)
        return baseline_ops + noise_ops + 4  # subtract + add + shift + store
