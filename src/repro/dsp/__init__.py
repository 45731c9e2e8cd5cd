"""Benchmark DSP: the paper's three applications.

* :mod:`repro.dsp.morphology` — ECG conditioning by morphological
  filtering (3L-MF, after Sun et al. [21]);
* :mod:`repro.dsp.mmd` — multi-scale morphological-derivative
  delineation (3L-MMD, after Rincon et al. [10]);
* :mod:`repro.dsp.beatdet` + :mod:`repro.dsp.rp` — R-peak detection and
  random-projection heartbeat classification (RP-CLASS, after Braojos
  et al. [22]).
"""

from .morphology import MorphologicalFilter
from .rp import RandomProjectionClassifier

__all__ = ["MorphologicalFilter", "RandomProjectionClassifier"]
