"""The paper's three benchmark applications (Sec. IV-D, Fig. 5).

* **3L-MF** — three-lead morphological filtering: three replicas of the
  conditioning filter, no producer-consumer channels; synchronization
  is only used to recover lock-step across data-dependent branches.
* **3L-MMD** — three-lead delineation: the three filter replicas feed
  an aggregator, which feeds the MMD delineator (producer-consumer
  *and* lock-step synchronization); mapped on five cores.
* **RP-CLASS** — single-lead conditioning + random-projection beat
  classification, plus a three-lead delineation chain activated only
  for pathological beats; mapped on six cores.

Workload constants are calibrated as described in
:mod:`repro.apps.phases`: the three single-core "Min. Clock" values of
Table I anchor the totals (2.3 / 3.4 / 3.3 MHz at 250 Hz); code sizes
are sized so the builder's first-fit packing reproduces the "Active IM
banks" rows; per-phase sync behaviour is set from the cycle-level
kernel characterisation (see ``repro.kernels``).

The *functional* runners, which execute the real DSP of :mod:`repro.dsp`
over a record, live in :mod:`repro.apps.functional`: the builders and
cycle constants here load neither numpy nor the DSP stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .phases import AppSpec, ChannelSpec, PhaseSpec, SectionSpec, Trigger

#: Input sampling rate of all benchmarks (Hz).
FS = 250.0

# Calibrated per-phase cycle budgets (cycles per sample at 250 Hz).
#   3 * MF                    = 9_200  -> 2.3 MHz (3L-MF SC)
#   3 * MF + COMBINE + DELIN  = 13_600 -> 3.4 MHz (3L-MMD SC)
#   MF + CLASSIFY (2 halves)  = 11_000;
#   + 20 % of the chain       -> ~3.3 MHz (RP-CLASS SC at 20 %)
MF_CYCLES = 3_067.0
COMBINE_CYCLES = 1_400.0
DELINEATE_CYCLES = 3_000.0
CLASSIFY_HALF_CYCLES = 3_966.0


def _mf_phase(replicas: int, trigger: Trigger = Trigger.STREAMING,
              alignment: float = 0.605, name: str = "filter",
              shared_reads: float = 0.093, sync_code: int = 92,
              sync_ops: float = 50.0) -> PhaseSpec:
    """The conditioning-filter phase (shared code across replicas).

    The synchronization knobs vary slightly per benchmark: the filter
    is instrumented with more lock-step recovery sites when it is the
    whole application (3L-MF) than when producer-consumer hand-offs
    already act as re-alignment points (3L-MMD / RP-CLASS); the
    calibrated values land on the paper's per-benchmark overhead rows.
    """
    return PhaseSpec(
        name=name,
        cycles_per_sample=MF_CYCLES,
        dm_access_rate=0.25,
        sections=(SectionSpec("mf", 3200),),
        sync_code_words=sync_code,
        sync_ops_per_sample=sync_ops,
        replicas=replicas,
        lockstep_alignment=alignment,
        shared_read_fraction=shared_reads,
        trigger=trigger,
        dm_words=1700,
    )


def three_lead_mf() -> AppSpec:
    """3L-MF: three-lead morphological filtering (Fig. 5-a)."""
    app = AppSpec(
        name="3L-MF",
        fs=FS,
        phases=[_mf_phase(replicas=3)],
        channels=[],
        description="three-lead morphological filtering [21]",
    )
    app.validate()
    return app


def three_lead_mmd() -> AppSpec:
    """3L-MMD: three-lead filtering + MMD delineation (Fig. 5-b)."""
    filter_phase = _mf_phase(replicas=3, alignment=0.52,
                             shared_reads=0.126, sync_code=78,
                             sync_ops=41.0)
    combine = PhaseSpec(
        name="combine",
        cycles_per_sample=COMBINE_CYCLES,
        dm_access_rate=0.30,
        sections=(SectionSpec("combine", 1900),),
        sync_code_words=6,
        sync_ops_per_sample=4.0,
        dm_words=400,
    )
    delineate = PhaseSpec(
        name="delineate",
        cycles_per_sample=DELINEATE_CYCLES,
        dm_access_rate=0.28,
        sections=(SectionSpec("delineate_a", 2000),
                  SectionSpec("delineate_b", 2000)),
        sync_code_words=6,
        sync_ops_per_sample=4.0,
        dm_words=500,
    )
    app = AppSpec(
        name="3L-MMD",
        fs=FS,
        phases=[filter_phase, combine, delineate],
        channels=[
            ChannelSpec(producers=("filter",), consumer="combine"),
            ChannelSpec(producers=("combine",), consumer="delineate"),
        ],
        description="three-lead delineation with multi-scale "
                    "morphological derivatives [10]",
    )
    app.validate()
    return app


def rp_class(pathological_ratio: float = 0.20) -> "RpClassApp":
    """RP-CLASS: beat classification + on-demand delineation (Fig. 5-c).

    Args:
        pathological_ratio: fraction of abnormal beats in the input
            (Table I uses 20 %; Fig. 7 sweeps 0-100 %).
    """
    filter_main = _mf_phase(replicas=1, name="filter", sync_code=70)
    classify = PhaseSpec(
        name="classify",
        cycles_per_sample=CLASSIFY_HALF_CYCLES,
        dm_access_rate=0.52,  # NN search loads a prototype word every
        # other cycle: the most data-hungry phase of the suite
        sections=(SectionSpec("rp_project", 1800),
                  SectionSpec("rp_nn", 2000)),
        sync_code_words=14,
        sync_ops_per_sample=8.0,
        replicas=2,  # data-parallel halves of the prototype database
        # The NN search is riddled with data-dependent branches, so the
        # two halves keep drifting out of lock-step despite recovery.
        lockstep_alignment=0.20,
        shared_read_fraction=0.085,
        dm_words=7500,  # half of the projected-prototype database each
    )
    # Chain activations begin from a synchronizer-triggered wake-up, so
    # the two on-demand filter replicas start perfectly aligned and
    # hold lock-step through most of the bounded beat window.
    filter_chain = _mf_phase(replicas=2, trigger=Trigger.ON_ABNORMAL,
                             alignment=0.92, name="filter_chain",
                             shared_reads=0.126, sync_code=70)
    delineate_chain = PhaseSpec(
        name="delineate_chain",
        cycles_per_sample=COMBINE_CYCLES + DELINEATE_CYCLES,
        dm_access_rate=0.28,
        sections=(SectionSpec("combine", 1900),
                  SectionSpec("delineate_a", 2000),
                  SectionSpec("delineate_b", 2000)),
        sync_code_words=8,
        sync_ops_per_sample=4.0,
        trigger=Trigger.ON_ABNORMAL,
        dm_words=900,
    )
    app = RpClassApp(
        name="RP-CLASS",
        fs=FS,
        phases=[filter_main, classify, filter_chain, delineate_chain],
        channels=[
            ChannelSpec(producers=("filter",), consumer="classify"),
            ChannelSpec(producers=("filter_chain",),
                        consumer="delineate_chain",
                        handoffs_per_sample=0.01),  # per-beat hand-off
        ],
        description="random-projection heartbeat classification [22] "
                    "with on-demand three-lead delineation",
    )
    app.pathological_ratio = pathological_ratio
    app.validate()
    return app


@dataclass
class RpClassApp(AppSpec):
    """RP-CLASS with its workload knob (abnormal-beat ratio)."""

    pathological_ratio: float = 0.20
