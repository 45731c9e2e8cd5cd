"""Multi-scale morphological-derivative (MMD) ECG delineation.

The 3L-MMD benchmark (Sec. IV-D, after Rincon et al. [10]): the three
conditioned leads are *aggregated* into a single stream and analysed
with multi-scale morphological derivatives to locate the fiducial
points of every heartbeat (P peak, QRS onset, R peak, QRS offset,
T peak).

The morphological derivative at scale ``s`` is

    MMD_s(f) = (f (+) g_s) + (f (-) g_s) - 2 f

with a flat structuring element ``g_s`` — a second-derivative-like
corner detector: it peaks where the waveform bends, which is exactly
where wave onsets and offsets live.  Different scales select different
waves: a narrow element follows the steep QRS edges, a wide one the
smooth P/T transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beatdet import detect_r_peaks
from .morphology import _make_odd, dilate, erode


@dataclass(frozen=True)
class MmdParams:
    """Scales and search windows of the delineator (seconds).

    Attributes:
        qrs_scale_s: structuring-element width for QRS corners.
        wave_scale_s: structuring-element width for P/T corners.
        qrs_search_s: onset/offset search span around the R peak.
        boundary_fraction: |MMD| level (relative to the complex's
            maximum response) below which the waveform is considered
            isoelectric — the onset/offset boundary.
        boundary_run: consecutive sub-threshold samples required to
            accept a boundary (debouncing).
        p_window_s: (start, end) of the P-wave window before the R peak.
        t_window_s: (start, end) of the T-wave window after the R peak.
        p_threshold: minimum P amplitude relative to R to report a P
            wave (PVC beats have none).
    """

    qrs_scale_s: float = 0.028
    wave_scale_s: float = 0.09
    qrs_search_s: float = 0.10
    boundary_fraction: float = 0.10
    boundary_run: int = 3
    p_window_s: tuple[float, float] = (0.30, 0.10)
    t_window_s: tuple[float, float] = (0.12, 0.42)
    p_threshold: float = 0.06


@dataclass(frozen=True)
class DelineatedBeat:
    """Fiducial points of one beat (sample indices; ``None`` = absent).

    Attributes:
        r_peak: R-peak position.
        qrs_onset: start of the QRS complex.
        qrs_offset: end of the QRS complex.
        p_peak: P-wave apex, or None when undetectable.
        t_peak: T-wave apex, or None when undetectable.
    """

    r_peak: int
    qrs_onset: int
    qrs_offset: int
    p_peak: int | None
    t_peak: int | None


def combine_leads(leads: list[np.ndarray]) -> np.ndarray:
    """Aggregate conditioned leads into one analysis stream.

    Root-sum-of-squares emphasises complexes present in any lead and is
    the usual multi-lead aggregation for delineation ([10]).
    """
    if not leads:
        raise ValueError("need at least one lead")
    acc = np.zeros(len(leads[0]), dtype=np.float64)
    for lead in leads:
        samples = np.asarray(lead, dtype=np.float64)
        acc += samples * samples
    return np.sqrt(acc / len(leads)).astype(np.int32)


def mmd_transform(signal: np.ndarray, size: int) -> np.ndarray:
    """Morphological derivative at one scale (corner detector)."""
    samples = np.asarray(signal, dtype=np.int64)
    return (dilate(signal, size).astype(np.int64)
            + erode(signal, size).astype(np.int64)
            - 2 * samples)


class MmdDelineator:
    """Multi-lead MMD delineator (the 3L-MMD analysis chain).

    Args:
        fs: sampling frequency in Hz.
        params: scales and windows.
    """

    def __init__(self, fs: float, params: MmdParams | None = None) -> None:
        self.fs = fs
        self.params = params or MmdParams()
        self.qrs_scale = _make_odd(
            max(3, int(round(self.params.qrs_scale_s * fs))))
        self.wave_scale = _make_odd(
            max(5, int(round(self.params.wave_scale_s * fs))))

    def delineate(self, combined: np.ndarray,
                  r_peaks: list[int] | None = None) -> list[DelineatedBeat]:
        """Locate the fiducial points of every beat in the stream.

        Args:
            combined: aggregated conditioned stream
                (see :func:`combine_leads`).
            r_peaks: optional precomputed R positions; detected when
                omitted.
        """
        p = self.params
        fs = self.fs
        if r_peaks is None:
            r_peaks = detect_r_peaks(combined, fs)
        corners_qrs = mmd_transform(combined, self.qrs_scale)
        amplitude = float(np.percentile(np.abs(combined), 99.5)) or 1.0
        search = int(p.qrs_search_s * fs)
        beats: list[DelineatedBeat] = []
        for peak in r_peaks:
            onset = self._boundary(corners_qrs, peak, -1, search)
            offset = self._boundary(corners_qrs, peak, +1, search)
            p_peak = self._wave_apex(
                combined, peak - int(p.p_window_s[0] * fs),
                peak - int(p.p_window_s[1] * fs),
                amplitude * p.p_threshold)
            t_peak = self._wave_apex(
                combined, peak + int(p.t_window_s[0] * fs),
                peak + int(p.t_window_s[1] * fs), 0.0)
            beats.append(DelineatedBeat(
                r_peak=peak, qrs_onset=onset, qrs_offset=offset,
                p_peak=p_peak, t_peak=t_peak))
        return beats

    def _boundary(self, corners: np.ndarray, peak: int, direction: int,
                  search: int) -> int:
        """Walk outward from the R peak until the MMD response dies out.

        The QRS complex bends strongly, so |MMD| stays high inside it;
        the onset/offset is the first sustained return to the
        isoelectric level (below ``boundary_fraction`` of the
        complex's maximum response).
        """
        p = self.params
        n = len(corners)
        lo = max(0, peak - self.qrs_scale)
        hi = min(n, peak + self.qrs_scale + 1)
        reference = float(np.abs(corners[lo:hi]).max()) or 1.0
        threshold = p.boundary_fraction * reference
        limit = peak + direction * search
        limit = max(0, min(n - 1, limit))
        run = 0
        index = peak
        while index != limit:
            index += direction
            if abs(int(corners[index])) < threshold:
                run += 1
                if run >= p.boundary_run:
                    return index - direction * (p.boundary_run - 1)
            else:
                run = 0
        return limit

    def _wave_apex(self, signal: np.ndarray, lo: int, hi: int,
                   min_amplitude: float) -> int | None:
        """Apex of a smooth wave in ``[lo, hi)``, if prominent enough."""
        lo = max(0, lo)
        hi = min(len(signal), hi)
        if hi <= lo:
            return None
        window = np.abs(np.asarray(signal[lo:hi], dtype=np.int64))
        apex = int(np.argmax(window))
        if window[apex] < min_amplitude:
            return None
        return lo + apex
