"""repro — reproduction of Braojos et al., DATE 2014.

"Hardware/Software Approach for Code Synchronization in Low-Power
Multi-Core Sensor Nodes": a hybrid HW/SW synchronization mechanism
(SINC/SDEC/SNOP/SLEEP instructions + a lightweight synchronizer unit)
for multi-core wireless body sensor nodes, evaluated on three embedded
ECG applications.

Package map (``docs/architecture.md`` has the layer diagram and the
import layering):

* :mod:`repro.core` — synchronization points, synchronizer unit,
  protocol primitives (the paper's contribution).
* :mod:`repro.isa` — 16-bit RISC ISA with the sync ISE; assembler,
  disassembler, builder/linker.
* :mod:`repro.hw` — cycle-level platform: cores, banked memories,
  broadcasting crossbars, ATU, ADC, single-/multi-core systems.
* :mod:`repro.kernels` — assembly kernels characterised on the
  cycle-level platform, and the cross-check of the calibrated budgets.
* :mod:`repro.power` — 90 nm-style VFS and component energy models.
* :mod:`repro.signals` — synthetic multi-lead ECG (CSE substitute).
* :mod:`repro.dsp` — benchmark DSP: morphological filtering, MMD
  delineation, random-projection beat classification.
* :mod:`repro.apps` — application graphs + the partition / insert /
  map methodology.
* :mod:`repro.sysc` — system-level (SystemC-analog) simulator.
* :mod:`repro.gen` — seeded synthetic workload generator and
  mapping-policy explorer (beyond the paper's three apps).
* :mod:`repro.search` — seeded stochastic placement search.
* :mod:`repro.cover` — coverage model and fuzz loop over generated
  workloads.
* :mod:`repro.net` — multi-node WBSN fleets: drifting clocks, beacon
  radio, inter-node time synchronization.
* :mod:`repro.sweep` — declarative cached experiment campaigns.
* :mod:`repro.eval` — experiment drivers and the ``python -m
  repro.eval`` command line.
* :mod:`repro.obs` — run metrics, timing spans and their artifact.
* :mod:`repro.store` — atomic JSON writes and the code fingerprint.
* :mod:`repro.parallel` — shard-and-merge over the caller and forked
  children.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
