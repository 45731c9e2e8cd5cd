"""Cycle-level hardware platform (see ``docs/architecture.md``).

Cores, banked memories with power gating, broadcasting crossbars, the
private/shared ATU, the memory-mapped ADC, and the single-/multi-core
platform top levels of the paper's Fig. 2.
"""

from .system import System

__all__ = ["System"]
