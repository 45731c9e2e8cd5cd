"""Assembly kernels + cycle-level characterisation.

The cross-check of the behavioural model's calibrated budgets against
these kernels loads the ECG DSP stack, so it lives beside its test in
``tests/kernels/costmodel.py``.
"""

from .characterize import (
    characterize_barrier_pipeline,
    characterize_mac,
    characterize_window_min,
)
from .sources import mac_kernel, window_min_kernel

__all__ = [
    "characterize_barrier_pipeline",
    "characterize_mac",
    "characterize_window_min",
    "mac_kernel",
    "window_min_kernel",
]
