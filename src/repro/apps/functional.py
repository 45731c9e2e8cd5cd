"""Functional runners: 3L-MMD's and RP-CLASS's real DSP over a record.

The behavioural model (:mod:`repro.apps.benchmarks`) only needs each
application's phase graph and cycle budgets; these runners execute the
actual ECG pipelines of :mod:`repro.dsp`, so examples and tests can
check application outputs, not just performance numbers.  Both start
with 3L-MF's morphological filter.  They are a module of their own
because they load numpy and the DSP stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.beatdet import detect_r_peaks
from ..dsp.mmd import DelineatedBeat, MmdDelineator, combine_leads
from ..dsp.morphology import MorphologicalFilter
from ..dsp.rp import RandomProjectionClassifier
from ..signals.records import BeatLabel, EcgRecord

@dataclass
class MmdOutput:
    """Functional output of 3L-MMD: fiducial points per beat."""

    filtered_leads: list[np.ndarray]
    combined: np.ndarray
    beats: list[DelineatedBeat]


@dataclass
class RpClassOutput:
    """Functional output of RP-CLASS.

    Attributes:
        detected_peaks: R peaks found on the classifier lead.
        labels: per-peak classification.
        delineated: fiducial points of the beats flagged abnormal
            (the on-demand three-lead delineation results).
    """

    detected_peaks: list[int]
    labels: list[BeatLabel]
    delineated: list[DelineatedBeat]


def run_three_lead_mmd(record: EcgRecord) -> MmdOutput:
    """Run the 3L-MMD pipeline functionally."""
    mf = MorphologicalFilter(fs=record.fs)
    filtered = [mf.process(lead) for lead in record.leads[:3]]
    combined = combine_leads(filtered)
    beats = MmdDelineator(record.fs).delineate(combined)
    return MmdOutput(filtered_leads=filtered, combined=combined,
                     beats=beats)


def run_rp_class(record: EcgRecord,
                 classifier: RandomProjectionClassifier) -> RpClassOutput:
    """Run the RP-CLASS pipeline functionally.

    Args:
        record: input record (>= 3 leads).
        classifier: a *fitted* random-projection classifier.
    """
    mf = MorphologicalFilter(fs=record.fs)
    main_lead = mf.process(record.leads[0])
    peaks = detect_r_peaks(main_lead, record.fs)
    labels: list[BeatLabel] = []
    abnormal_peaks: list[int] = []
    for peak in peaks:
        label = classifier.classify_beat(main_lead, peak)
        if label is None:
            label = BeatLabel.NORMAL
        labels.append(label)
        if label is not BeatLabel.NORMAL:
            abnormal_peaks.append(peak)

    delineated: list[DelineatedBeat] = []
    if abnormal_peaks:
        # The delineation chain conditions the remaining leads and
        # delineates only the flagged beats.
        others = [mf.process(lead) for lead in record.leads[1:3]]
        combined = combine_leads([main_lead, *others])
        delineated = MmdDelineator(record.fs).delineate(
            combined, r_peaks=abnormal_peaks)
    return RpClassOutput(detected_peaks=peaks, labels=labels,
                         delineated=delineated)
