"""Tests for the random-projection heartbeat classifier."""

import numpy as np
import pytest

from repro.dsp.beatdet import detect_r_peaks
from repro.dsp.morphology import MorphologicalFilter
from repro.dsp.rp import RandomProjectionClassifier, RpParams
from repro.signals import BeatLabel, EcgConfig, synthesize_ecg

from .scores import classification_accuracy

FS = 250.0


def _labelled_beats(seed, ratio=0.3, duration=60.0):
    record = synthesize_ecg(EcgConfig(duration_s=duration, num_leads=1,
                                      pathological_ratio=ratio, seed=seed,
                                      uniform_pathology=False))
    lead = MorphologicalFilter(fs=FS).process(record.leads[0])
    peaks = [beat.sample for beat in record.annotations]
    labels = [beat.label for beat in record.annotations]
    return lead, peaks, labels


def test_training_stores_prototypes():
    lead, peaks, labels = _labelled_beats(seed=21)
    classifier = RandomProjectionClassifier(FS)
    stored = classifier.fit(lead, peaks, labels)
    assert stored == classifier.prototype_count
    assert stored > 10


def test_classifier_separates_normal_from_pvc():
    train_lead, train_peaks, train_labels = _labelled_beats(seed=21)
    classifier = RandomProjectionClassifier(FS)
    classifier.fit(train_lead, train_peaks, train_labels)

    test_lead, test_peaks, test_labels = _labelled_beats(seed=22)
    predicted, truth = [], []
    for peak, label in zip(test_peaks, test_labels):
        result = classifier.classify_beat(test_lead, peak)
        if result is not None:
            predicted.append(result)
            truth.append(label)
    assert classification_accuracy(predicted, truth) > 0.9


def test_classifier_on_detected_peaks():
    """End-to-end: filter -> detect -> classify on unseen data."""
    train_lead, train_peaks, train_labels = _labelled_beats(seed=31)
    classifier = RandomProjectionClassifier(FS)
    classifier.fit(train_lead, train_peaks, train_labels)

    record = synthesize_ecg(EcgConfig(duration_s=40.0, num_leads=1,
                                      pathological_ratio=0.25, seed=33))
    lead = MorphologicalFilter(fs=FS).process(record.leads[0])
    detected = detect_r_peaks(lead, FS)
    flagged = sum(
        1 for peak in detected
        if classifier.classify_beat(lead, peak) is BeatLabel.PVC)
    true_abnormal = sum(1 for beat in record.annotations
                        if beat.is_pathological)
    # Flagged count within 30 % of the truth.
    assert flagged == pytest.approx(true_abnormal, rel=0.3)


def test_prototype_budget_is_enforced():
    lead, peaks, labels = _labelled_beats(seed=21, duration=120.0)
    params = RpParams(max_prototypes_per_class=8)
    classifier = RandomProjectionClassifier(FS, params)
    classifier.fit(lead, peaks, labels)
    assert classifier.prototype_count <= 16


def test_projection_matrix_is_pm_one_and_deterministic():
    a = RandomProjectionClassifier(FS)
    b = RandomProjectionClassifier(FS)
    assert np.array_equal(a.projection, b.projection)
    assert set(np.unique(a.projection)) == {-1, 1}


def test_projection_preserves_relative_distances():
    """Johnson-Lindenstrauss sanity: far windows stay far."""
    classifier = RandomProjectionClassifier(FS)
    rng = np.random.default_rng(3)
    base = rng.standard_normal(classifier.window_len)
    near = base + 0.05 * rng.standard_normal(classifier.window_len)
    far = rng.standard_normal(classifier.window_len)
    d_near = np.linalg.norm(classifier.project(base)
                            - classifier.project(near))
    d_far = np.linalg.norm(classifier.project(base)
                           - classifier.project(far))
    assert d_near < d_far


def test_window_extraction_edges():
    classifier = RandomProjectionClassifier(FS)
    lead = np.zeros(200, dtype=np.int32)
    assert classifier.extract_window(lead, 2) is None
    assert classifier.extract_window(lead, 199) is None


def test_classify_before_fit_raises():
    classifier = RandomProjectionClassifier(FS)
    with pytest.raises(RuntimeError):
        classifier.classify_window(np.zeros(classifier.window_len))


def test_wrong_window_length_rejected():
    classifier = RandomProjectionClassifier(FS)
    with pytest.raises(ValueError):
        classifier.project(np.zeros(3))


def test_dm_words_accounts_matrix_and_prototypes():
    lead, peaks, labels = _labelled_beats(seed=21)
    classifier = RandomProjectionClassifier(FS)
    classifier.fit(lead, peaks, labels)
    expected = (classifier.projection.size
                + classifier.prototype_count * 16)
    assert classifier.dm_words() == expected


def test_accuracy_helper_validates_lengths():
    with pytest.raises(ValueError):
        classification_accuracy([BeatLabel.NORMAL], [])
    assert classification_accuracy([], []) == 1.0
