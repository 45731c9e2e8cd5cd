"""Scores of the DSP tests: detection F1, delineation sensitivity and
classification accuracy against a record's ground truth."""

from __future__ import annotations

from repro.dsp.mmd import DelineatedBeat
from repro.signals import BeatLabel


def detection_f1(detected: list[int], truth: list[int], fs: float,
                 tolerance_s: float = 0.08) -> float:
    """F1 score of detections against ground-truth annotations."""
    if not truth:
        return 1.0 if not detected else 0.0
    tolerance = int(tolerance_s * fs)
    truth_left = list(truth)
    true_positive = 0
    for peak in detected:
        best = None
        for candidate in truth_left:
            if abs(candidate - peak) <= tolerance:
                if best is None or abs(candidate - peak) < abs(best - peak):
                    best = candidate
        if best is not None:
            true_positive += 1
            truth_left.remove(best)
    precision = true_positive / len(detected) if detected else 0.0
    recall = true_positive / len(truth)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def delineation_sensitivity(beats: list[DelineatedBeat],
                            truth_peaks: list[int], fs: float,
                            tolerance_s: float = 0.08) -> float:
    """Fraction of ground-truth beats with a matching delineation."""
    if not truth_peaks:
        return 1.0
    tolerance = int(tolerance_s * fs)
    found = 0
    detected = [beat.r_peak for beat in beats]
    for peak in truth_peaks:
        if any(abs(candidate - peak) <= tolerance
               for candidate in detected):
            found += 1
    return found / len(truth_peaks)


def classification_accuracy(predicted: list[BeatLabel],
                            truth: list[BeatLabel]) -> float:
    """Fraction of beats with the correct label."""
    if len(predicted) != len(truth):
        raise ValueError("length mismatch")
    if not truth:
        return 1.0
    correct = sum(1 for a, b in zip(predicted, truth) if a is b)
    return correct / len(truth)
