"""The paper's primary contribution: HW/SW code synchronization.

The synchronizer layer of ``docs/architecture.md`` is one module,
:mod:`repro.core.synchronizer`: the sync-point word (per-core
identification flags + up/down counter), the same-cycle merge of
``SINC``/``SDEC``/``SNOP`` requests, the fire rule, the per-core event
latches behind ``SLEEP`` clock gating and the interrupt forwarding.
The package imports none of its modules.
"""
