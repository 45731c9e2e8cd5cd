"""The paper's primary contribution: HW/SW code synchronization.

The synchronizer layer of ``docs/architecture.md``:

* :mod:`repro.core.syncpoint` — synchronization point words (per-core
  identification flags + up/down counter) and the same-cycle merge
  reduction;
* :mod:`repro.core.events` — event latches and interrupt
  subscription/forwarding;
* :mod:`repro.core.synchronizer` — the synchronizer unit that merges
  requests, watches counters, clock-gates and resumes cores;
* :mod:`repro.core.primitives` — protocol recipes (producer-consumer,
  lock-step regions, reusable barriers) expressed purely in terms of
  the paper's ``SINC``/``SDEC``/``SNOP``/``SLEEP`` instructions.

The package imports none of its modules: the platform loads only the
synchronizer, never the protocol recipes.
"""
