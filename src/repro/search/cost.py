"""Pluggable cost oracles over ``simulate(mapping=...)``.

The search treats the behavioural simulator as a black-box cost
oracle: a candidate becomes a :class:`~repro.apps.mapping.MappingPlan`,
one simulation runs, and the oracle distils a single scalar to
minimise.  Three kinds ship:

* ``power``  — average platform power in uW (the paper's Table I
  figure of merit, and the default);
* ``clock``  — the VFS operating frequency in MHz (the clock-floor
  minimisation of Picu et al.);
* ``composite`` — power plus a weighted clock term, for co-tuning
  placements that should not buy microwatts with megahertz.

The simulation and its figures come from
:func:`repro.gen.explorer.measure`, the explorer's own path, so a
placement scores the same here as in a ``gen`` or ``cover`` record.
Oracles are pure functions of ``(app, plan, num_cores)``, so the
search can memoise them by candidate identity and the whole run stays
byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.phases import AppSpec
from ..apps.mapping import MappingPlan
from ..gen.explorer import measure
from ..sysc.engine import Mode

#: Cost kinds :func:`get_oracle` accepts.
ORACLE_KINDS = ("power", "clock", "composite")

#: Default simulated seconds per oracle call (500 ticks at 250 Hz —
#: short enough to afford dozens of calls per app, long enough for the
#: metrics to settle; the paper's reproduced metrics are
#: duration-invariant).
ORACLE_DURATION_S = 2.0

#: uW charged per MHz of operating clock by the composite oracle.
COMPOSITE_CLOCK_WEIGHT_UW_PER_MHZ = 25.0


@dataclass(frozen=True)
class CostOracle:
    """One scalar cost function over a simulated placement.

    Attributes:
        kind: ``power`` / ``clock`` / ``composite``.
        duration_s: simulated seconds per evaluation.
        clock_weight_uw_per_mhz: composite-kind clock weight.
    """

    kind: str = "power"
    duration_s: float = ORACLE_DURATION_S
    clock_weight_uw_per_mhz: float = COMPOSITE_CLOCK_WEIGHT_UW_PER_MHZ

    def evaluate(self, app: AppSpec, plan: MappingPlan,
                 num_cores: int = 8) -> tuple[float, dict]:
        """Simulate one placement and score it.

        Args:
            app: the application the plan places.
            plan: the candidate placement.
            num_cores: provisioned platform width.

        Returns:
            ``(cost, metrics)`` — the scalar to minimise plus the
            JSON-scalar metric mapping of the underlying simulation
            (power, clock, voltage, duty cycle, sync overhead, active
            banks/cores).
        """
        metrics = measure(app, plan, Mode.MULTI_CORE, num_cores,
                          self.duration_s)
        return self.cost_of(metrics), metrics

    def cost_of(self, metrics: dict) -> float:
        """The scalar cost of one evaluation's metric mapping."""
        if self.kind == "clock":
            return float(metrics["clock_mhz"])
        if self.kind == "power":
            return float(metrics["power_uw"])
        return (float(metrics["power_uw"])
                + self.clock_weight_uw_per_mhz
                * float(metrics["clock_mhz"]))


def get_oracle(kind: str = "power",
               duration_s: float = ORACLE_DURATION_S) -> CostOracle:
    """Build a cost oracle.

    Args:
        kind: one of :data:`ORACLE_KINDS`.
        duration_s: simulated seconds per evaluation.

    Raises:
        ValueError: unknown kind or non-positive duration.
    """
    if kind not in ORACLE_KINDS:
        raise ValueError(
            f"unknown cost oracle {kind!r}; choose from "
            f"{list(ORACLE_KINDS)}")
    if duration_s <= 0.0:
        raise ValueError("oracle duration must be positive")
    return CostOracle(kind=kind, duration_s=duration_s)
