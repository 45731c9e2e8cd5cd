"""Behavioural system-level simulator (the paper's SystemC analogue).

See ``docs/architecture.md``, section "`repro.hw` → `repro.sysc`".
"""

from .engine import Mode, simulate, uniform_schedule

__all__ = ["Mode", "simulate", "uniform_schedule"]
