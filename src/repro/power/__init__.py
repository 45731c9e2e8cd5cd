"""Power modelling.

90 nm-style process/VFS model, calibrated per-component energies, and
the activity-to-power accounting that produces Table I's average power
and Fig. 6's decomposition.
"""

from .energy import ActivityVector, PowerReport, compute_power
from .vfs import OperatingPoint, plan_operating_point

__all__ = [
    "ActivityVector",
    "OperatingPoint",
    "PowerReport",
    "compute_power",
    "plan_operating_point",
]
