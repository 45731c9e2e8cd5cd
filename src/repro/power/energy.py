"""Energy accounting: activity counters -> average power decomposition.

This is the annotation step of the paper's methodology (Sec. IV-C):
activity gathered from simulation (either the cycle-level platform or
the system-level model) is combined with the per-component energies of
:mod:`repro.power.components`, scaled to the operating voltage, and
reported as the average power over the simulated interval — the
quantity of Table I ("Avg. Power (µW)") and the stacked decomposition
of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Callable

from .components import DEFAULT_ENERGY
from .process import dynamic_scale, leakage_scale
from .vfs import OperatingPoint

def sum_left(values) -> float:
    """Left-to-right sum, as builtin ``sum()`` was before CPython 3.12
    (which compensates float sums), so totals keep their bits on every
    Python version."""
    return reduce(add, values, 0)


#: Decomposition categories, in Fig. 6 stacking order.
CATEGORIES = (
    "clock_tree",
    "leakage",
    "interconnect",
    "synchronizer",
    "cores_logic",
    "data_mem",
    "instr_mem",
)


@dataclass(frozen=True)
class ActivityVector:
    """Platform-neutral activity counts over one simulated interval.

    Attributes:
        cycles: elapsed system clock cycles.
        core_active_cycles: non-clock-gated core-cycles, summed over
            enabled cores.
        im_accesses: instruction-memory bank accesses (post-broadcast).
        dm_accesses: data-memory bank accesses (post-broadcast,
            including the synchronizer's point updates).
        interconnect_grants: requests served by the interconnect
            (merged requests still traverse the fan-out and are
            counted).
        sync_ops: synchronization instructions processed.
        cores_on: enabled (powered) cores.
        im_banks_on: powered instruction-memory banks.
        dm_banks_on: powered data-memory banks.
        platform_cores: cores the clock tree is sized for (8 on the
            paper's multi-core platform even when fewer are enabled).
    """

    cycles: float
    core_active_cycles: float
    im_accesses: float
    dm_accesses: float
    interconnect_grants: float
    sync_ops: float
    cores_on: int
    im_banks_on: int
    dm_banks_on: int
    platform_cores: int

    @classmethod
    def from_system(cls, activity, platform_cores: int | None = None
                    ) -> "ActivityVector":
        """Adapter from :class:`repro.hw.system.SystemActivity`."""
        return cls(
            cycles=activity.cycles,
            core_active_cycles=sum(activity.core_active_cycles),
            im_accesses=activity.im.accesses,
            dm_accesses=activity.dm.accesses,
            interconnect_grants=(activity.im_xbar.grants
                                 + activity.dm_xbar.grants),
            sync_ops=activity.sync.total_sync_instructions,
            cores_on=activity.active_cores,
            im_banks_on=activity.im.powered_banks,
            dm_banks_on=activity.dm.powered_banks,
            platform_cores=platform_cores
            if platform_cores is not None
            else len(activity.core_active_cycles),
        )


@dataclass
class PowerReport:
    """Average power of one configuration, decomposed by component.

    Attributes:
        operating_point: the (frequency, voltage) the run assumed.
        duration_s: simulated wall-clock time.
        categories: average power per category, µW (see
            :data:`CATEGORIES`).
    """

    operating_point: OperatingPoint
    duration_s: float
    categories: dict[str, float] = field(default_factory=dict)

    @property
    def total_uw(self) -> float:
        """Total average power in µW."""
        return sum_left(self.categories.values())

    def saving_vs(self, baseline: "PowerReport") -> float:
        """Fractional power saving of ``self`` relative to ``baseline``."""
        if baseline.total_uw == 0:
            return 0.0
        return 1.0 - self.total_uw / baseline.total_uw

    def __str__(self) -> str:  # pragma: no cover - convenience
        lines = [f"P_avg = {self.total_uw:7.2f} uW @ "
                 f"{self.operating_point.frequency_mhz:.2f} MHz / "
                 f"{self.operating_point.voltage:.2f} V"]
        extras = [name for name in self.categories
                  if name not in CATEGORIES]
        for name in (*CATEGORIES, *extras):
            lines.append(f"  {name:<13} {self.categories.get(name, 0.0):7.2f}")
        return "\n".join(lines)


def compute_power(activity: ActivityVector, point: OperatingPoint,
                  multicore: bool) -> PowerReport:
    """Turn activity counters into an average-power decomposition.

    The component energies are
    :data:`~repro.power.components.DEFAULT_ENERGY`, scaled to the
    operating voltage by the process scales of :mod:`repro.power.process`.

    Args:
        activity: counters gathered over one simulated interval.
        point: operating point the platform ran at (sets the duration
            via ``cycles / f`` and the voltage scaling).
        multicore: True for the crossbar-based platform, False for the
            decoder-based single-core baseline (selects interconnect
            energy, synchronizer idle power and crossbar leakage).
    """
    return power_model(point, multicore, activity.cycles, activity.cores_on,
                       activity.im_banks_on, activity.dm_banks_on,
                       activity.platform_cores)(activity)


def power_model(point: OperatingPoint, multicore: bool, cycles: float,
                cores_on: int, im_banks_on: int, dm_banks_on: int,
                platform_cores: int
                ) -> Callable[[ActivityVector], PowerReport]:
    """:func:`compute_power` of activities with these fields: duration,
    voltage scales, leakage and the clock root's and synchronizer's
    idle energy are computed once; the returned function adds an
    activity's own terms."""
    if cycles <= 0:
        raise ValueError("activity must span at least one cycle")
    params = DEFAULT_ENERGY
    duration_s = cycles / point.cycles_per_second
    dyn = dynamic_scale(point.voltage)
    leak = leakage_scale(point.voltage)
    clock_root_pj = cycles * (params.clock_root_base_pj
                              + params.clock_root_per_core_pj * platform_cores)
    grant_pj = params.xbar_grant_pj if multicore else params.decoder_access_pj
    sync_idle_pj = cycles * params.sync_idle_pj
    leakage_uw = leak * (
        im_banks_on * params.leak_im_bank_uw
        + dm_banks_on * params.leak_dm_bank_uw
        + cores_on * params.leak_core_uw
        + (params.leak_xbar_uw if multicore else 0.0))

    def to_uw(pico_joules: float) -> float:
        return pico_joules * dyn / duration_s * 1e-6

    def report(activity: ActivityVector) -> PowerReport:
        # Dynamic energies in pJ.
        active = activity.core_active_cycles
        sync_pj = activity.sync_ops * params.sync_op_pj
        if multicore:
            sync_pj += sync_idle_pj
        categories = {
            "cores_logic": to_uw(active * params.core_active_pj),
            "clock_tree": to_uw(clock_root_pj
                                + active * params.clock_branch_pj),
            "instr_mem": to_uw(activity.im_accesses * params.im_access_pj),
            "data_mem": to_uw(activity.dm_accesses * params.dm_access_pj),
            "interconnect": to_uw(activity.interconnect_grants * grant_pj),
            "synchronizer": to_uw(sync_pj),
            "leakage": leakage_uw,
        }
        return PowerReport(operating_point=point, duration_s=duration_s,
                           categories=categories)

    return report
