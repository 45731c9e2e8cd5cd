"""Behavioural system-level simulator (the paper's SystemC analogue).

See ``docs/architecture.md``, section "`repro.hw` → `repro.sysc`".
"""

from .engine import Mode, schedule_from_record, simulate, uniform_schedule

__all__ = ["Mode", "schedule_from_record", "simulate", "uniform_schedule"]
