"""Streaming R-peak detection on a conditioned lead.

Front half of the RP-CLASS benchmark: before a heartbeat can be
classified, its R peak must be located.  The detector is a classic
embedded design — absolute-amplitude adaptive threshold with a
refractory period — cheap enough for a 16-bit core and robust on
conditioned (baseline-free) leads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BeatDetectorParams:
    """Tuning of the adaptive-threshold detector.

    Attributes:
        refractory_s: minimum distance between detections (physiologic
            refractory period, ~200 ms).
        threshold_fraction: detection threshold as a fraction of the
            running peak estimate.
        decay_per_s: per-second decay of the running peak estimate, so
            the detector recovers from one oversized beat.
        warmup_s: initial span used to seed the peak estimate.
    """

    refractory_s: float = 0.30
    threshold_fraction: float = 0.60
    decay_per_s: float = 0.08
    warmup_s: float = 2.0


def detect_r_peaks(lead: np.ndarray, fs: float,
                   params: BeatDetectorParams | None = None) -> list[int]:
    """Locate R peaks in a conditioned lead.

    Returns ascending sample indices of detected peaks.
    """
    p = params or BeatDetectorParams()
    samples = np.abs(np.asarray(lead, dtype=np.int64))
    if len(samples) == 0:
        return []
    refractory = max(1, int(p.refractory_s * fs))
    warmup = min(len(samples), max(1, int(p.warmup_s * fs)))
    peak_estimate = float(np.percentile(samples[:warmup], 99.5))
    if peak_estimate <= 0:
        peak_estimate = float(samples.max()) or 1.0
    decay = p.decay_per_s / fs

    peaks: list[int] = []
    index = 1
    last_peak = -refractory
    n = len(samples)
    while index < n - 1:
        threshold = p.threshold_fraction * peak_estimate
        value = samples[index]
        if (value >= threshold and index - last_peak >= refractory
                and value >= samples[index - 1]
                and value >= samples[index + 1]):
            # Refine to the true local maximum inside the refractory span.
            hi = min(n, index + refractory // 2)
            local = index + int(np.argmax(samples[index:hi]))
            peaks.append(local)
            last_peak = local
            # Track the peak amplitude: fast when it grows, slowly when
            # it shrinks, so a T-wave misfire cannot drag the threshold
            # down into P/T territory.
            if samples[local] >= peak_estimate:
                peak_estimate = 0.5 * peak_estimate + 0.5 * samples[local]
            else:
                peak_estimate = 0.95 * peak_estimate \
                    + 0.05 * samples[local]
            index = local + 1
        else:
            peak_estimate = max(1.0, peak_estimate * (1.0 - decay))
            index += 1
    return peaks
