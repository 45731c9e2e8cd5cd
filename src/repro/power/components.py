"""Per-component energy parameters (the "RTL annotation" of Sec. IV-C).

The paper extracts "the average energy consumption of each
architectural element when executing small code sections" from
post-layout simulations and annotates a SystemC model with them.  We
cannot run a 90 nm flow, so the per-access/per-cycle energies below are
*calibrated* instead:

* a linear fit of the three **single-core** Table I rows pins the total
  dynamic energy per cycle at 0.6 V (~22.5 pJ) and the per-bank leakage
  (IM 0.40 µW, DM 0.25 µW);
* the split of those 22.5 pJ across core logic, clock tree, instruction
  fetch and data access follows the usual breakdown of low-power
  sensor-node cores, where instruction-memory fetch dominates — which
  is precisely why the paper's instruction *broadcast* buys so much;
* multi-core-only elements (crossbar traversal, larger clock-tree root,
  synchronizer) are sized so the no-synchronization multi-core overhead
  lands near the paper's "up to 34 % of the total energy in 3L-MF".

Every multi-core number in Table I / Fig. 6 / Fig. 7 is then a *model
output*, not a fit.

All dynamic energies are in pJ at the process reference voltage; all
leakage numbers are µW at the reference voltage.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EnergyParams:
    """Energy cost of each architectural element.

    Dynamic (pJ at V_ref):

    Attributes:
        core_active_pj: core datapath + control, per non-gated cycle.
        clock_branch_pj: per-core clock-tree branch, per non-gated
            cycle (clock gating prunes the branch).
        clock_root_base_pj: clock-tree root, per cycle while the
            platform runs.
        clock_root_per_core_pj: clock-root increment per attached core
            (the multi-core tree is "more complex", Sec. V-B).
        im_access_pj: one instruction-memory bank read.
        dm_access_pj: one data-memory bank read/write.
        xbar_grant_pj: one request traversing a logarithmic crossbar
            (multi-core only).
        decoder_access_pj: one request through the baseline's simple
            address decoder (single-core only).
        sync_op_pj: one synchronization instruction processed by the
            synchronizer unit.
        sync_idle_pj: synchronizer idle toggle, per cycle (multi-core
            only).

    Leakage (µW at V_ref):

    Attributes:
        leak_im_bank_uw: one powered instruction-memory bank.
        leak_dm_bank_uw: one powered data-memory bank.
        leak_core_uw: one enabled core.
        leak_xbar_uw: crossbars + synchronizer (multi-core only).
    """

    core_active_pj: float = 3.0
    clock_branch_pj: float = 1.0
    clock_root_base_pj: float = 0.5
    clock_root_per_core_pj: float = 0.45
    im_access_pj: float = 14.0
    dm_access_pj: float = 14.0
    xbar_grant_pj: float = 2.0
    decoder_access_pj: float = 0.3
    sync_op_pj: float = 2.0
    sync_idle_pj: float = 0.3
    leak_im_bank_uw: float = 0.40
    leak_dm_bank_uw: float = 0.25
    leak_core_uw: float = 0.15
    leak_xbar_uw: float = 0.20


#: Calibrated defaults used by all experiments.
DEFAULT_ENERGY = EnergyParams()
