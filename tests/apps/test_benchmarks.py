"""Tests for the benchmark definitions and functional pipelines."""

import pytest

from repro.apps import rp_class, three_lead_mf, three_lead_mmd
from repro.apps.functional import (
    run_rp_class,
    run_three_lead_mmd,
)
from repro.dsp.morphology import MorphologicalFilter
from repro.dsp.rp import RandomProjectionClassifier
from repro.signals import (
    BeatLabel,
    EcgConfig,
    cse_like_record,
    rp_class_record,
    synthesize_ecg,
)

FS = 250.0


def test_workload_calibration_anchors_single_core_clocks():
    """The calibrated budgets reproduce Table I's SC minimum clocks."""
    mf = three_lead_mf()
    assert mf.streaming_cycles_per_sample * FS / 1e6 == \
        pytest.approx(2.3, abs=0.02)
    mmd = three_lead_mmd()
    assert mmd.streaming_cycles_per_sample * FS / 1e6 == \
        pytest.approx(3.4, abs=0.02)
    rp = rp_class(0.20)
    streaming = rp.streaming_cycles_per_sample * FS
    triggered = 0.20 * (72 / 60) * rp.triggered_cycles_per_beat
    assert (streaming + triggered) / 1e6 == pytest.approx(3.3, abs=0.1)


def test_multicore_streaming_loads_fit_one_mhz():
    """Every streaming phase fits the 1 MHz multi-core clock."""
    for app in (three_lead_mf(), three_lead_mmd(), rp_class()):
        for phase in app.phases:
            if phase.trigger.value != "streaming":
                continue
            load = (phase.cycles_per_sample
                    + phase.sync_ops_per_sample) * FS / 1e6
            assert load <= 1.0, f"{app.name}/{phase.name}: {load}"


def test_specs_validate():
    for app in (three_lead_mf(), three_lead_mmd(), rp_class(0.3)):
        app.validate()


def test_rp_class_ratio_knob():
    assert rp_class(0.5).pathological_ratio == 0.5


# ---------------------------------------------------------------------------
# Functional pipelines
# ---------------------------------------------------------------------------

def test_run_three_lead_mf_functional():
    """3L-MF runs the morphological filter on each of three leads."""
    record = cse_like_record(duration_s=10.0)
    mf = MorphologicalFilter(fs=record.fs)
    filtered = [mf.process(lead) for lead in record.leads[:3]]
    assert len(filtered) == 3
    assert all(len(lead) == record.num_samples for lead in filtered)


def test_run_three_lead_mmd_functional():
    record = cse_like_record(duration_s=20.0)
    output = run_three_lead_mmd(record)
    truth = len(record.annotations)
    assert truth * 0.9 <= len(output.beats) <= truth * 1.1
    for beat in output.beats:
        assert beat.qrs_onset <= beat.r_peak <= beat.qrs_offset


def _fitted_classifier(seed=41):
    train = synthesize_ecg(EcgConfig(
        duration_s=60.0, num_leads=1, pathological_ratio=0.3, seed=seed,
        uniform_pathology=False))
    lead = MorphologicalFilter(fs=FS).process(train.leads[0])
    classifier = RandomProjectionClassifier(FS)
    classifier.fit(lead,
                   [beat.sample for beat in train.annotations],
                   [beat.label for beat in train.annotations])
    return classifier


def test_run_rp_class_functional_end_to_end():
    classifier = _fitted_classifier()
    record = rp_class_record(duration_s=40.0, pathological_ratio=0.2,
                             seed=55)
    output = run_rp_class(record, classifier)
    truth_abnormal = sum(1 for beat in record.annotations
                         if beat.is_pathological)
    flagged = sum(1 for label in output.labels
                  if label is BeatLabel.PVC)
    # Sensible detection and classification volumes.
    assert len(output.detected_peaks) >= 0.9 * len(record.annotations)
    assert flagged == pytest.approx(truth_abnormal, abs=4)
    # The chain delineates exactly the flagged beats.
    assert len(output.delineated) == flagged


def test_run_rp_class_without_abnormalities_skips_chain():
    classifier = _fitted_classifier()
    record = rp_class_record(duration_s=30.0, pathological_ratio=0.0,
                             seed=56)
    output = run_rp_class(record, classifier)
    flagged = sum(1 for label in output.labels
                  if label is BeatLabel.PVC)
    # The on-demand chain activates rarely (ideally never).
    assert flagged <= 2
    assert len(output.delineated) == flagged
