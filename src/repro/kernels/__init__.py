"""Assembly kernels + cycle-level characterisation.

:mod:`repro.kernels.costmodel` cross-checks the behavioural model's
calibrated budgets against these kernels; it loads the ECG DSP stack,
so this package does not import it.
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
