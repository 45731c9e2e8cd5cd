"""Record containers for multi-lead ECG signals.

The paper evaluates on "standard multi-lead ECG inputs ... from a
healthy subject of the CSE Database" (Sec. IV-D).  The CSE database is
proprietary, so this reproduction substitutes synthetic records (see
:mod:`repro.signals.ecg`); the
containers below are database-agnostic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class BeatLabel(enum.Enum):
    """Clinical class of one heartbeat."""

    NORMAL = "normal"
    PVC = "pvc"  # premature ventricular contraction (pathological)


@dataclass(frozen=True)
class BeatAnnotation:
    """Ground-truth annotation of one beat.

    Attributes:
        sample: R-peak position in samples.
        label: beat class.
    """

    sample: int
    label: BeatLabel

    @property
    def is_pathological(self) -> bool:
        """True for beats that must trigger the RP-CLASS delineation."""
        return self.label is not BeatLabel.NORMAL


@dataclass
class EcgRecord:
    """A multi-lead ECG recording with ground-truth annotations.

    Attributes:
        fs: sampling frequency in Hz.
        leads: per-lead sample arrays (int16-ranged ADC counts).
        annotations: ground-truth beats, ascending by sample index.
        name: identifier of the record.
    """

    fs: float
    leads: list[np.ndarray]
    annotations: list[BeatAnnotation] = field(default_factory=list)
    name: str = "synthetic"

    @property
    def num_leads(self) -> int:
        """Number of leads in the record."""
        return len(self.leads)

    @property
    def num_samples(self) -> int:
        """Samples per lead."""
        return len(self.leads[0]) if self.leads else 0

    @property
    def duration_s(self) -> float:
        """Record duration in seconds."""
        return self.num_samples / self.fs

    def pathological_ratio(self) -> float:
        """Fraction of annotated beats that are pathological."""
        if not self.annotations:
            return 0.0
        abnormal = sum(1 for beat in self.annotations
                       if beat.is_pathological)
        return abnormal / len(self.annotations)

    def lead(self, index: int) -> np.ndarray:
        """Samples of one lead."""
        return self.leads[index]

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent lead lengths/annotations."""
        lengths = {len(lead) for lead in self.leads}
        if len(lengths) > 1:
            raise ValueError("all leads must have the same length")
        for beat in self.annotations:
            if not 0 <= beat.sample < self.num_samples:
                raise ValueError(
                    f"annotation at {beat.sample} outside the record")
        positions = [beat.sample for beat in self.annotations]
        if positions != sorted(positions):
            raise ValueError("annotations must be sorted by sample")
