"""90 nm low-leakage process model: voltage, frequency, scaling.

The paper measures energy on a 90 nm low-leakage flow and exploits
voltage-frequency scaling (VFS): lowering the clock frequency allows a
lower supply voltage, which reduces both dynamic and leakage power
(Sec. I, II, V).  We model the process with:

* a **maximum-frequency table** ``fmax(V)`` over a discrete voltage
  grid (near-threshold operation is steep: each 50 mV step roughly
  doubles the achievable clock, consistent with published
  sub/near-threshold silicon [4][5][6]);
* a **dynamic-energy scale** ``(V / V_ref) ** DYNAMIC_EXPONENT`` with
  ``DYNAMIC_EXPONENT`` slightly above 2 (pure CV² plus the
  short-circuit/glitch component that shrinks with voltage);
* a **leakage-power scale** ``(V / V_ref) ** LEAKAGE_EXPONENT`` with a
  cubic-ish exponent (sub-threshold current shrinks super-linearly with
  V through DIBL).

The table anchors the paper's operating points: 1.0 MHz at 0.5 V (all
multi-core rows of Table I) and 3.5 MHz at 0.6 V — just above the
single-core rows (2.3-3.4 MHz, all at 0.6 V, with 0.55 V topping out
below 2.3 MHz).  The tight 0.6 V headroom matters for Fig. 7: when the
pathological-beat ratio pushes the single-core clock past ~3.5 MHz the
baseline must hop to 0.65 V, which is where the paper's reduction curve
climbs toward its ~38 % best case.

Calibration note: the exponents and the table are
*process* calibration shared by every experiment; per-benchmark numbers
are never fitted.
"""

from __future__ import annotations

#: (voltage V, maximum clock frequency MHz) on the legal voltage grid,
#: strictly ascending in voltage and in frequency.
FMAX_TABLE: tuple[tuple[float, float], ...] = (
    (0.40, 0.12),
    (0.45, 0.40),
    (0.50, 1.00),
    (0.55, 2.20),
    (0.60, 3.50),
    (0.65, 5.60),
    (0.70, 9.00),
    (0.80, 36.0),
    (0.90, 60.0),
    (1.00, 90.0),
    (1.10, 120.0),
    (1.20, 150.0),
)

#: Voltage at which the component energies of
#: :class:`repro.power.components.EnergyParams` are specified.
REFERENCE_VOLTAGE = 0.6

#: Exponent of the dynamic-energy voltage scale.
DYNAMIC_EXPONENT = 2.8

#: Exponent of the leakage-power voltage scale.
LEAKAGE_EXPONENT = 3.0


def min_voltage(frequency_mhz: float, frequency_boost: float = 1.0) -> float:
    """Smallest grid voltage able to clock at ``frequency_mhz``.

    Args:
        frequency_mhz: required clock frequency.
        frequency_boost: multiplier on ``fmax`` for platforms with
            shorter critical paths — the single-core baseline's
            simple decoders "allow higher clock frequencies at the
            same voltage level" (Sec. IV-B).
    """
    if frequency_mhz <= 0:
        raise ValueError("frequency must be positive")
    for grid_voltage, fmax in FMAX_TABLE:
        if fmax * frequency_boost >= frequency_mhz - 1e-12:
            return grid_voltage
    raise ValueError(
        f"no grid voltage reaches {frequency_mhz} MHz "
        f"(max {FMAX_TABLE[-1][1] * frequency_boost} MHz)")


def dynamic_scale(voltage: float) -> float:
    """Dynamic energy multiplier relative to the reference voltage."""
    return (voltage / REFERENCE_VOLTAGE) ** DYNAMIC_EXPONENT


def leakage_scale(voltage: float) -> float:
    """Leakage power multiplier relative to the reference voltage."""
    return (voltage / REFERENCE_VOLTAGE) ** LEAKAGE_EXPONENT
