"""Voltage-frequency scaling: choosing the platform operating point.

Sec. V-A: "the unused memory banks are powered-off and the system clock
frequency is reduced to the minimum in order to exploit the benefits of
voltage-frequency scaling".  The planner therefore:

1. takes the *required* throughput in cycles per second (the worst-case
   per-core workload under real-time constraints),
2. clamps it to the platform's minimum system clock (the paper's
   multi-core rows all read 1.0 MHz: the ADC/system timing floor),
3. picks the smallest grid voltage whose ``fmax`` reaches the clock —
   giving the Table I "Min. Clock (MHz)" and "Min. Voltage (V)" rows.

The single-core baseline gets a small ``fmax`` boost because its simple
decoders shorten the memory path ("allowing higher clock frequencies at
the same voltage level", Sec. IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass

from .process import min_voltage

#: Platform minimum system clock in MHz (ADC and peripheral timing).
MIN_SYSTEM_CLOCK_MHZ = 1.0

#: fmax multiplier of the single-core baseline's decoder datapath.
#: Kept small (4 %) so that 2.3 MHz still requires 0.6 V, matching the
#: 3L-MF single-core row of Table I.
SINGLE_CORE_FMAX_BOOST = 1.04


@dataclass(frozen=True)
class OperatingPoint:
    """A (frequency, voltage) pair the platform runs at.

    Attributes:
        frequency_mhz: system clock frequency in MHz.
        voltage: supply voltage in V.
    """

    frequency_mhz: float
    voltage: float

    @property
    def cycles_per_second(self) -> float:
        """Clock cycles per second."""
        return self.frequency_mhz * 1e6


def plan_operating_point(required_mhz: float,
                         single_core: bool = False,
                         floor_mhz: float = MIN_SYSTEM_CLOCK_MHZ
                         ) -> OperatingPoint:
    """Choose the minimum (frequency, voltage) meeting a throughput need
    on the process table :data:`~repro.power.process.FMAX_TABLE`.

    Args:
        required_mhz: worst-case required clock in MHz (work cycles per
            second / 1e6, already including stall and overhead cycles).
        single_core: apply the decoder fmax boost of the baseline.
        floor_mhz: minimum system clock the platform supports.

    Returns:
        The chosen operating point; frequency is the exact requirement
        (clamped to the floor), voltage is the smallest grid value able
        to clock it.
    """
    if required_mhz < 0:
        raise ValueError("required frequency cannot be negative")
    frequency = max(required_mhz, floor_mhz)
    boost = SINGLE_CORE_FMAX_BOOST if single_core else 1.0
    voltage = min_voltage(frequency, frequency_boost=boost)
    return OperatingPoint(frequency_mhz=frequency, voltage=voltage)
