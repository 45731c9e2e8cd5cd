"""Cross-validation of the calibrated workload budgets.

The system-level model uses calibrated per-phase cycle budgets
(:mod:`repro.apps.benchmarks`), anchored to the paper's single-core
minimum clocks.  This module *derives* the same quantity bottom-up —
operation counts of the real DSP implementation times per-operation
cycle costs measured on the cycle-accurate platform — and reports how
well the two agree.  A large disagreement would mean the calibration
is hiding modelling error; the test suite keeps the ratio within a
factor of 2.  In practice the calibrated budget sits ~1.8x above the
bare inner-loop estimate: the headroom covers circular-buffer index
arithmetic, fixed-point scaling and inter-pass buffering that the
micro-kernel's straight-line loop omits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.benchmarks import MF_CYCLES
from repro.dsp.morphology import MorphologicalFilter
from repro.kernels.characterize import characterize_window_min

#: Default cycles per window element when no measurement is supplied
#: (the cycle-level window-minimum kernel at W=32 measures ~6.2).
DEFAULT_CYCLES_PER_ELEMENT = 6.2


@dataclass(frozen=True)
class CostConsistency:
    """Derived vs. calibrated cost of the filter phase.

    Attributes:
        ops_per_sample: operation count of the real DSP implementation.
        cycles_per_element: measured cycles per window element.
        derived_cycles_per_sample: bottom-up cycle estimate.
        calibrated_cycles_per_sample: the budget used by the model
            (anchored to Table I's 2.3 MHz single-core clock).
    """

    ops_per_sample: int
    cycles_per_element: float
    derived_cycles_per_sample: float
    calibrated_cycles_per_sample: float

    @property
    def ratio(self) -> float:
        """calibrated / derived; 1.0 would be perfect agreement."""
        if self.derived_cycles_per_sample == 0:
            return float("inf")
        return (self.calibrated_cycles_per_sample
                / self.derived_cycles_per_sample)


def derive_filter_cost(fs: float = 250.0,
                       cycles_per_element: float | None = None,
                       measure: bool = False) -> CostConsistency:
    """Derive the conditioning filter's cycles/sample bottom-up.

    Args:
        fs: sampling rate (sets the structuring-element widths).
        cycles_per_element: per-element cost; measured on the
            cycle-level platform when ``measure`` is True, otherwise
            the supplied value or the recorded default.
        measure: run the window-minimum kernel to obtain the cost.
    """
    if measure:
        report = characterize_window_min(cores=1, window=32, outputs=48)
        cycles_per_element = report.cycles_per_element
    if cycles_per_element is None:
        cycles_per_element = DEFAULT_CYCLES_PER_ELEMENT
    mf = MorphologicalFilter(fs=fs)
    # Window elements touched per output sample: two passes at each
    # baseline width plus four short noise passes (see ops_per_sample).
    elements = (2 * mf.open_size + 2 * mf.close_size + 4 * mf.noise_size)
    derived = elements * cycles_per_element
    return CostConsistency(
        ops_per_sample=mf.ops_per_sample(),
        cycles_per_element=cycles_per_element,
        derived_cycles_per_sample=derived,
        calibrated_cycles_per_sample=MF_CYCLES,
    )
