"""Signal substrate: synthetic ECG, record containers."""

from .ecg import (
    EcgConfig,
    NoiseProfile,
    cse_like_record,
    rp_class_record,
    synthesize_ecg,
)
from .records import BeatLabel

__all__ = [
    "BeatLabel",
    "EcgConfig",
    "NoiseProfile",
    "cse_like_record",
    "rp_class_record",
    "synthesize_ecg",
]
