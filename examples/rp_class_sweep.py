"""RP-CLASS: train, classify, and sweep the pathological ratio (Fig. 7).

The third benchmark end to end: a random-projection classifier is
trained on one synthetic patient, then deployed on unseen recordings;
each beat it flags as abnormal triggers the three-lead delineation
chain.  Finally the Fig. 7 experiment sweeps the fraction of
pathological beats and reports the multi-core power reduction at each
point.

Run with::

    python examples/rp_class_sweep.py
"""

from repro.apps.functional import run_rp_class
from repro.dsp import MorphologicalFilter, RandomProjectionClassifier
from repro.eval import render_fig7, run_fig7
from repro.signals import BeatLabel, EcgConfig, rp_class_record, \
    synthesize_ecg

FS = 250.0


def train_classifier() -> RandomProjectionClassifier:
    """Fit the classifier on a labelled synthetic training record."""
    train = synthesize_ecg(EcgConfig(
        duration_s=90.0, num_leads=1, pathological_ratio=0.3,
        seed=101, uniform_pathology=False))
    lead = MorphologicalFilter(fs=FS).process(train.leads[0])
    classifier = RandomProjectionClassifier(FS)
    stored = classifier.fit(
        lead,
        [beat.sample for beat in train.annotations],
        [beat.label for beat in train.annotations])
    print(f"trained on {len(train.annotations)} beats -> "
          f"{stored} projected prototypes "
          f"({classifier.dm_words()} DM words)")
    return classifier


def main() -> None:
    classifier = train_classifier()

    # ------------------------------------------------------------------
    # Deploy on an unseen record with 20 % pathological beats.
    # ------------------------------------------------------------------
    record = rp_class_record(duration_s=60.0, pathological_ratio=0.20,
                             seed=202)
    output = run_rp_class(record, classifier)
    flagged = sum(1 for label in output.labels
                  if label is BeatLabel.PVC)
    truth = sum(1 for beat in record.annotations
                if beat.is_pathological)
    print(f"\ndeployment: {len(output.detected_peaks)} beats detected, "
          f"{flagged} flagged abnormal (ground truth: {truth})")
    print(f"on-demand chain delineated {len(output.delineated)} beats")

    # ------------------------------------------------------------------
    # Figure 7: power vs. pathological ratio.
    # ------------------------------------------------------------------
    print()
    print(render_fig7(run_fig7(duration_s=30.0)))


if __name__ == "__main__":
    main()
