"""3L-MMD end to end: signals -> DSP -> mapping -> power.

Reproduces the paper's most complete streaming benchmark: three ECG
leads are conditioned in parallel, aggregated, and delineated with
multi-scale morphological derivatives.  The script shows all three
layers of the reproduction working together:

1. the *functional* pipeline (real DSP over a synthetic CSE-like
   record) produces fiducial points for every heartbeat;
2. the *mapping* step places the application on 5 cores / 4 IM banks
   exactly as Table I reports;
3. the *system-level* simulation prices the single-core baseline
   against the synchronized multi-core system.

Run with::

    python examples/ecg_multicore_pipeline.py
"""

from repro.apps import map_multicore, three_lead_mmd
from repro.apps.functional import run_three_lead_mmd
from repro.signals import cse_like_record
from repro.sysc import Mode, simulate, uniform_schedule


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Functional pipeline on 30 s of synthetic 3-lead ECG.
    # ------------------------------------------------------------------
    record = cse_like_record(duration_s=30.0, num_leads=3)
    output = run_three_lead_mmd(record)
    print(f"record: {record.duration_s:.0f} s, {record.num_leads} leads, "
          f"{len(record.annotations)} annotated beats")
    print(f"delineated {len(output.beats)} beats; first three:")
    for beat in output.beats[:3]:
        onset_ms = (beat.r_peak - beat.qrs_onset) / record.fs * 1000
        offset_ms = (beat.qrs_offset - beat.r_peak) / record.fs * 1000
        print(f"  R @ {beat.r_peak / record.fs:6.2f} s  "
              f"QRS -{onset_ms:.0f}/+{offset_ms:.0f} ms  "
              f"P {'yes' if beat.p_peak is not None else 'no ':<3} "
              f"T {'yes' if beat.t_peak is not None else 'no'}")

    # ------------------------------------------------------------------
    # 2. Mapping (Sec. III-B step 3).
    # ------------------------------------------------------------------
    app = three_lead_mmd()
    plan = map_multicore(app)
    print(f"\nmapping: {plan.active_cores} cores, IM banks "
          f"{sorted(plan.im_banks_used)}, "
          f"{plan.sync_points_used} sync points, "
          f"code overhead {plan.code_overhead * 100:.2f} %")
    for assignment in plan.assignments:
        print(f"  core {assignment.core}: {assignment.phase}"
              f"[{assignment.replica}]")

    # ------------------------------------------------------------------
    # 3. Single-core vs. multi-core power (Table I column).
    # ------------------------------------------------------------------
    schedule = uniform_schedule(60.0, app.fs)
    single = simulate(app, Mode.SINGLE_CORE, schedule)
    multi = simulate(app, Mode.MULTI_CORE, schedule)
    print(f"\nsingle-core: {single.operating_point.frequency_mhz:.1f} MHz"
          f" @ {single.operating_point.voltage:.2f} V -> "
          f"{single.power.total_uw:.1f} uW")
    print(f"multi-core:  {multi.operating_point.frequency_mhz:.1f} MHz"
          f" @ {multi.operating_point.voltage:.2f} V -> "
          f"{multi.power.total_uw:.1f} uW "
          f"(IM broadcast {multi.im_broadcast_fraction * 100:.1f} %)")
    print(f"saving: {multi.power.saving_vs(single.power) * 100:.1f} % "
          f"(paper: 36.9 %)")


if __name__ == "__main__":
    main()
