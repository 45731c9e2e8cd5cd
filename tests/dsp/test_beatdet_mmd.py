"""Tests for beat detection and MMD delineation on synthetic ECG."""

import numpy as np
import pytest

from repro.dsp.beatdet import detect_r_peaks
from repro.dsp.mmd import MmdDelineator, combine_leads, mmd_transform
from repro.dsp.morphology import MorphologicalFilter
from repro.signals import EcgConfig, synthesize_ecg

from .scores import delineation_sensitivity, detection_f1

FS = 250.0


def _conditioned_record(duration=30.0, ratio=0.0, seed=9, leads=3):
    record = synthesize_ecg(EcgConfig(duration_s=duration, num_leads=leads,
                                      pathological_ratio=ratio, seed=seed))
    mf = MorphologicalFilter(fs=FS)
    filtered = [mf.process(lead) for lead in record.leads]
    return record, filtered


# ---------------------------------------------------------------------------
# Beat detection
# ---------------------------------------------------------------------------

def test_detector_finds_nearly_all_beats():
    record, filtered = _conditioned_record()
    peaks = detect_r_peaks(filtered[0], FS)
    truth = [beat.sample for beat in record.annotations]
    assert detection_f1(peaks, truth, FS) > 0.95


def test_detector_works_with_pathological_beats():
    record, filtered = _conditioned_record(ratio=0.3, seed=11)
    peaks = detect_r_peaks(filtered[0], FS)
    truth = [beat.sample for beat in record.annotations]
    assert detection_f1(peaks, truth, FS) > 0.90


def test_detector_respects_refractory_period():
    _, filtered = _conditioned_record(duration=20.0)
    peaks = detect_r_peaks(filtered[0], FS)
    assert np.all(np.diff(peaks) >= int(0.25 * FS))


def test_detector_on_empty_and_flat_signals():
    assert detect_r_peaks(np.array([], dtype=np.int32), FS) == []
    assert detect_r_peaks(np.zeros(1000, dtype=np.int32), FS) == []


def test_detection_f1_edge_cases():
    assert detection_f1([], [], FS) == 1.0
    assert detection_f1([100], [], FS) == 0.0
    assert detection_f1([], [100], FS) == 0.0
    assert detection_f1([100], [105], FS) == 1.0


# ---------------------------------------------------------------------------
# MMD delineation
# ---------------------------------------------------------------------------

def test_combine_leads_rms():
    a = np.array([3, 0, -3], dtype=np.int32)
    b = np.array([4, 0, 4], dtype=np.int32)
    combined = combine_leads([a, b])
    assert combined[0] == pytest.approx(np.sqrt((9 + 16) / 2), abs=1)
    assert combined[1] == 0


def test_combine_leads_rejects_empty():
    with pytest.raises(ValueError):
        combine_leads([])


def test_mmd_transform_flags_corners():
    # A triangular bump: the MMD response must peak near the apex
    # (edges excluded: replication padding creates boundary artefacts).
    signal = np.concatenate([np.arange(0, 50, 5), np.arange(50, -5, -5),
                             np.zeros(20)]).astype(np.int32)
    response = np.abs(mmd_transform(signal, 5))
    interior = response[4:-4]
    apex = int(np.argmax(signal))
    assert abs(int(np.argmax(interior)) + 4 - apex) <= 3


def test_mmd_transform_is_zero_on_straight_lines():
    ramp = np.arange(0, 200, 2, dtype=np.int32)
    response = mmd_transform(ramp, 7)
    assert np.all(response[4:-4] == 0)


def test_delineation_finds_all_beats():
    record, filtered = _conditioned_record()
    combined = combine_leads(filtered)
    beats = MmdDelineator(FS).delineate(combined)
    truth = [beat.sample for beat in record.annotations]
    assert delineation_sensitivity(beats, truth, FS) > 0.95


def test_fiducial_ordering_invariant():
    """Onset < R < offset, P before onset, T after offset."""
    record, filtered = _conditioned_record(duration=20.0)
    combined = combine_leads(filtered)
    beats = MmdDelineator(FS).delineate(combined)
    assert beats
    for beat in beats:
        assert beat.qrs_onset <= beat.r_peak <= beat.qrs_offset
        if beat.p_peak is not None:
            assert beat.p_peak < beat.r_peak
        if beat.t_peak is not None:
            assert beat.t_peak > beat.r_peak


def test_qrs_width_is_physiological():
    _, filtered = _conditioned_record(duration=20.0)
    combined = combine_leads(filtered)
    beats = MmdDelineator(FS).delineate(combined)
    widths = [(b.qrs_offset - b.qrs_onset) / FS for b in beats]
    # Sane QRS widths: 20-200 ms on the synthetic morphology.
    assert all(0.02 <= width <= 0.2 for width in widths)


def test_t_wave_found_for_normal_beats():
    _, filtered = _conditioned_record(duration=20.0)
    combined = combine_leads(filtered)
    beats = MmdDelineator(FS).delineate(combined)
    with_t = sum(1 for beat in beats if beat.t_peak is not None)
    assert with_t / len(beats) > 0.9


def test_delineator_accepts_precomputed_peaks():
    record, filtered = _conditioned_record(duration=10.0)
    combined = combine_leads(filtered)
    truth = [beat.sample for beat in record.annotations
             if 100 < beat.sample < len(combined) - 120]
    beats = MmdDelineator(FS).delineate(combined, r_peaks=truth)
    assert [beat.r_peak for beat in beats] == truth
