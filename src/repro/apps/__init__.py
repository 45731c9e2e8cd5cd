"""Application layer: phase graphs + mapping methodology.

The functional DSP runners are in :mod:`repro.apps.functional`, which
this package does not import (it loads numpy and :mod:`repro.dsp`).
"""

from .benchmarks import rp_class, three_lead_mf, three_lead_mmd
from .mapping import MappingError, map_multicore, map_singlecore
from .phases import AppSpec

__all__ = [
    "AppSpec",
    "MappingError",
    "map_multicore",
    "map_singlecore",
    "rp_class",
    "three_lead_mf",
    "three_lead_mmd",
]
